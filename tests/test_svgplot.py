import pytest

from crowdloss.svgplot import write_line_plot


def test_no_points_rejected(tmp_path):
    with pytest.raises(ValueError, match="^nothing to plot$"):
        write_line_plot(tmp_path / "plot.svg", {"a": [], "b": []})


def test_single_point_with_flat_ranges_written(tmp_path):
    path = tmp_path / "plot.svg"
    write_line_plot(path, {"a": [(0.5, 0.25)]}, title="one point")
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
