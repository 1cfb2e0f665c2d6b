"""Render module (paper §4.2.3).

Converts intermediates into an HTML layout: tab per visualization, stats
tables with insight rows highlighted, and an embedded how-to guide per
panel. The paper uses Bokeh inside a custom HTML/JS layout; Bokeh is not
available here, so charts are rendered as dependency-free inline SVG —
the Compute/Render contract (intermediates in, markup out) is identical.
"""
from __future__ import annotations

import html as _html
from typing import Any, Callable, Iterable

import numpy as np
import pandas as pd
from pandas.io.formats.format import format_array

from repro.core.config import Config
from repro.core.howto import howto_html
from repro.core.intermediates import Insight, Intermediates


def _esc(x: Any) -> str:
    return _html.escape(str(x))


def _fmt(v: Any) -> str:
    if v is None:
        return "—"
    if isinstance(v, float):
        if v != v:
            return "nan"
        return f"{v:.4g}"
    return _esc(v)


def stats_table(stats: dict[str, Any], highlight: Iterable[str] = ()) -> str:
    """Two-column stats table; rows named in ``highlight`` get the insight
    class (rendered red, as in paper Figure 1 part B)."""
    hi = set(highlight)
    rows = []
    for k, v in stats.items():
        if isinstance(v, dict):
            continue
        cls = ' class="insight"' if k in hi else ""
        rows.append(f"<tr{cls}><td>{_esc(k)}</td><td>{_fmt(v)}</td></tr>")
    return f'<table class="stats">{"".join(rows)}</table>'


def svg_bars(
    counts: np.ndarray | pd.Series, width: int, height: int, labels: list[str] | None = None
) -> str:
    """Minimal SVG bar/histogram mark — one rect per bin/category."""
    values = np.asarray(
        counts.to_numpy() if isinstance(counts, pd.Series) else counts, dtype="float64"
    )
    if values.size == 0 or np.nanmax(values) <= 0:
        return f'<svg width="{width}" height="{height}"><text x="4" y="14">no data</text></svg>'
    peak = float(np.nanmax(values))
    n = values.size
    bw = width / n
    rects = []
    for i, v in enumerate(values):
        h = 0.0 if not (v == v) else (v / peak) * (height - 4)
        title = _esc(labels[i]) if labels else str(i)
        rects.append(
            f'<rect x="{i * bw:.1f}" y="{height - h:.1f}" width="{max(bw - 1, 1):.1f}" '
            f'height="{h:.1f}"><title>{title}: {v:g}</title></rect>'
        )
    return f'<svg class="chart" width="{width}" height="{height}">{"".join(rects)}</svg>'


def svg_line(xs: np.ndarray, ys: np.ndarray, width: int, height: int) -> str:
    """Minimal SVG polyline mark (KDE, CDF, Q-Q)."""
    xs = np.asarray(xs, dtype="float64")
    ys = np.asarray(ys, dtype="float64")
    ok = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[ok], ys[ok]
    if xs.size < 2:
        return f'<svg width="{width}" height="{height}"><text x="4" y="14">no data</text></svg>'
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    sx = (xs - x0) / (x1 - x0 or 1) * (width - 4) + 2
    sy = height - 2 - (ys - y0) / (y1 - y0 or 1) * (height - 4)
    pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(sx, sy))
    return (
        f'<svg class="chart" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="currentColor" points="{pts}"/></svg>'
    )


def _panel(name: str, body: str, guide_key: str | None = None) -> str:
    guide = f'<details class="howto"><summary>?</summary>{howto_html(guide_key)}</details>' if guide_key else ""
    return f'<section class="panel" data-tab="{_esc(name)}"><h3>{_esc(name)}{guide}</h3>{body}</section>'


def _insight_list(insights: list[Insight]) -> str:
    if not insights:
        return ""
    items = "".join(f'<li class="insight">{_esc(i.message)}</li>' for i in insights)
    return f'<ul class="insights">{items}</ul>'


def html_table(
    frame: pd.DataFrame, float_format: Callable[[float], str] | None = None, classes: str = ""
) -> str:
    """``frame`` as an HTML table with the cells of pandas' ``to_html(border=0)``.

    A header row of the column names (their axis name in the corner), a
    row of the index name if it has one, then a row per index label. A float
    reads ``float_format(v)``, or pandas' own format of its column without
    one; NaN reads ``NaN``; any other value its ``str``, escaped. One
    string join per table, where ``to_html`` builds a formatter per call.
    """

    def esc(x: Any) -> str:
        return _html.escape(str(x), quote=False)

    def cell(x: Any) -> str:
        if isinstance(x, float) and x != x:
            return "NaN"
        return float_format(x) if isinstance(x, float) and float_format else esc(x)

    columns = []
    for _, col in frame.items():
        v = col.to_numpy()
        if v.dtype.kind == "f" and float_format is None:
            columns.append([t.strip() for t in format_array(v, None)])
        else:
            columns.append([cell(x) for x in v.tolist()])
    head = "".join(f"<th>{esc(c)}</th>" for c in frame.columns)
    head = f'<tr style="text-align: right;"><th>{esc(frame.columns.name or "")}</th>{head}</tr>'
    if frame.index.name is not None:
        head += f"<tr><th>{esc(frame.index.name)}</th>{'<th></th>' * frame.shape[1]}</tr>"
    rows = "".join(
        f"<tr><th>{esc(label)}</th>{''.join(f'<td>{col[i]}</td>' for col in columns)}</tr>"
        for i, label in enumerate(frame.index)
    )
    table_class = " ".join(("dataframe", classes)).strip()
    return f'<table class="{table_class}"><thead>{head}</thead><tbody>{rows}</tbody></table>'


def _frame_table(pdf: pd.DataFrame, max_rows: int = 30) -> str:
    return html_table(pdf.head(max_rows), lambda v: f"{v:.4g}", "frame")


def render(inter: Intermediates, insights: list[Insight], cfg: Config) -> str:
    """Dispatch intermediates to the matching layout."""
    w, h = cfg["render.width"], cfg["render.height"]
    hi_cols = {i.subject for i in insights}
    panels: list[str] = []

    task = inter.task.split(":")[0]
    if task == "overview":
        panels.append(_panel("Stats", stats_table(inter["dataset_stats"])))
        for col, (counts, _edges) in inter["hists"].items():
            panels.append(_panel(f"{col} (hist)", svg_bars(counts, w, h), "hist"))
        for col, bar in inter["bars"].items():
            panels.append(_panel(f"{col} (bar)", svg_bars(bar, w, h, [str(i) for i in bar.index]), "bar"))
    elif task == "univariate":
        hl = {i.kind for i in insights}
        panels.append(_panel("Stats", stats_table(inter["stats"], hl)))
        if inter["type"] == "numerical":
            panels.append(_panel("Histogram", svg_bars(inter["hist"]["counts"], w, h), "hist"))
            panels.append(_panel("KDE Plot", svg_line(inter["kde"]["grid"], inter["kde"]["density"], w, h), "kde"))
            panels.append(_panel("Normal Q-Q Plot", svg_line(inter["qq"]["theoretical"], inter["qq"]["sample"], w, h), "qq"))
            panels.append(_panel("Box Plot", stats_table(inter["box"]), "box"))
        else:
            bar = inter["bar"]
            panels.append(_panel("Bar Chart", svg_bars(bar, w, h, [str(i) for i in bar.index]), "bar"))
            pie = inter["pie"]
            panels.append(_panel("Pie Chart", svg_bars(pie, w, h, [str(i) for i in pie.index]), "pie"))
            if "words" in inter:
                wc = inter["words"]["word_counts"]
                panels.append(_panel("Word Frequencies", svg_bars(wc, w, h, [str(i) for i in wc.index]), "wordfreq"))
    elif task == "bivariate":
        kind = inter["kind"]
        if kind == "NN":
            panels.append(_panel("Scatter Plot", _frame_table(inter["scatter"]), "scatter"))
            panels.append(_panel("Hexbin Plot", _frame_table(inter["hexbin"]), "hexbin"))
            panels.append(_panel("Binned Box Plot", _frame_table(inter["binned_box"]), "boxnum"))
        elif kind == "NC":
            panels.append(_panel("Categorical Box Plot", _frame_table(inter["cat_box"]), "box"))
            for g, line in inter.get("lines", {}).items():
                panels.append(_panel(f"Line: {g}", svg_bars(line, w, h), "line"))
        else:
            panels.append(_panel("Nested Bar Chart", _frame_table(inter["nested_bar"]), "nested"))
            panels.append(_panel("Stacked Bar Chart", _frame_table(inter["stacked_bar"].reset_index()), "nested"))
            panels.append(_panel("Heat Map", _frame_table(inter["heatmap"].reset_index()), "heatmap"))
    elif task == "correlation":
        for method in ("pearson", "spearman", "kendall"):
            if method in inter:
                obj = inter[method]
                if isinstance(obj, pd.DataFrame):
                    panels.append(_panel(method.title(), _frame_table(obj.reset_index()), "correlation"))
                elif isinstance(obj, pd.Series):
                    panels.append(_panel(method.title(), _frame_table(obj.rename("r").reset_index()), "correlation"))
                else:
                    panels.append(_panel(method.title(), stats_table({method: obj}), "correlation"))
        if "scatter" in inter:
            panels.append(_panel("Scatter + Regression", stats_table(inter["regression"]), "scatter"))
    elif task == "missing":
        if "bar" in inter and isinstance(inter["bar"], pd.Series):
            bar = inter["bar"]
            panels.append(_panel("Missing Bar Chart", svg_bars(bar, w, h, [str(i) for i in bar.index]), "bar"))
        if "spectrum" in inter:
            panels.append(_panel("Missing Spectrum", _frame_table(inter["spectrum"]), "spectrum"))
        if "nullity_corr" in inter:
            panels.append(_panel("Nullity Correlation", _frame_table(inter["nullity_corr"].reset_index()), "heatmap"))
        if "dendrogram" in inter:
            Z = inter["dendrogram"]["linkage"]
            panels.append(_panel("Dendrogram", _frame_table(pd.DataFrame(Z, columns=["left", "right", "dist", "size"])), "heatmap"))
        for section in ("numeric", "categorical"):
            for colname, frame in inter.get(section, {}).items() if isinstance(inter.get(section), dict) else []:
                panels.append(_panel(f"Impact on {colname}", _frame_table(frame), "hist"))
        if "hist" in inter and isinstance(inter.get("hist"), pd.DataFrame):
            panels.append(_panel("Histogram (before/after)", _frame_table(inter["hist"]), "hist"))
        if "cdf" in inter:
            cdf = inter["cdf"]
            panels.append(_panel("CDF", svg_line(np.arange(len(cdf["before"])), cdf["before"], w, h) + svg_line(np.arange(len(cdf["after"])), cdf["after"], w, h), "hist"))
        if "box" in inter and isinstance(inter.get("box"), dict) and "before" in inter["box"]:
            panels.append(_panel("Box (before)", stats_table(inter["box"]["before"]), "box"))
            panels.append(_panel("Box (after)", stats_table(inter["box"]["after"]), "box"))
        if "bar" in inter and isinstance(inter.get("bar"), pd.DataFrame):
            panels.append(_panel("Bar (before/after)", _frame_table(inter["bar"]), "bar"))
    else:  # pragma: no cover - report uses render_report
        panels.append(_panel("Intermediates", _esc(sorted(inter.keys()))))

    tabs = "".join(f'<button class="tab">{_esc(p.split("data-tab=")[1].split(chr(34))[1])}</button>' for p in panels if "data-tab=" in p)
    return (
        '<div class="dataprep-eda">'
        f'<nav class="tabs">{tabs}</nav>'
        f"{_insight_list(insights)}"
        f'{"".join(panels)}'
        "</div>"
    )


def render_report(sections: dict[str, str], insights: list[Insight], cfg: Config) -> str:
    """Assemble the full profile report layout (Overview, Variables,
    Interactions, Correlations, Missing Values — PP's five sections)."""
    body = "".join(
        f'<section class="report-section"><h2>{_esc(name)}</h2>{html}</section>'
        for name, html in sections.items()
    )
    return (
        f"<html><head><title>{_esc(cfg['render.report_title'])}</title></head>"
        f"<body><h1>{_esc(cfg['render.report_title'])}</h1>"
        f"{_insight_list(insights)}{body}</body></html>"
    )
