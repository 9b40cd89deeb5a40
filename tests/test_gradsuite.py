from demesh.gradsuite import run_suite


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
        "softmax_cross_entropy"]
    assert all(r.passed for r in results)
