import pytest

from demesh.gradsuite import MODULES, run_suite


def test_sabotage_fails_conv_input_alone():
    failed = [r.name for r in run_suite("layers", points=1, sabotage=True)
              if not r.passed]
    assert failed == ["conv_input"]

def test_all_runs_every_check_in_table_order():
    results = run_suite("all", points=1)
    assert [r.name for r in results] == [
        "conv_input", "conv_weight", "maxpool", "unpool", "max_feature_map",
        "dense_input", "dense_weight", "bilinear_backward",
        "alignment_sample", "pixel_loss", "reverse_huber", "feature_loss",
        "unified_loss", "conv_bias", "dense_bias", "relu", "sigmoid",
        "softmax_cross_entropy", "feature_loss_fcnf", "feature_loss_demesh_e",
        "conv_mfm_input", "conv_mfm_weight", "conv_mfm_bias"]
    assert all(r.passed for r in results)

@pytest.mark.parametrize("module, seed",
                         [(m, s) for m in MODULES for s in range(4)])
def test_every_check_passes(module, seed):
    failed = [f"{r.name}: max_rel_err={r.max_rel_err:.3e}"
              for r in run_suite(module, seed, points=2) if not r.passed]
    assert not failed, "failing checks: " + "; ".join(failed)
