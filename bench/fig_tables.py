#!/usr/bin/env python3
"""Render the paper's figure tables from the experiment summaries.

    fig2 --scheme all --seeds 1,2,3 --out runs
    fig4 --scheme all --loads 0.2,0.3,0.4,0.5,0.6,0.7,0.8 --seeds 1,2,3 --out runs
    python3 bench/fig_tables.py runs/fig2_summary.json runs/fig4_summary.json

From fig4_summary.json: the Fig. 4a (small-flow FCT), Fig. 4b (big-flow
FCT) and EDF deadline-met tables, scheme x load. From fig2_summary.json:
the Fig. 2 table, one row per scheme. A cell over one seed prints the
value; over several seeds it prints the median and the [min–max] spread.
A summary that lacks a column exits 1.
"""

import json
import statistics
import sys

FIG4_NAMES = {
    "fifo": "FIFO: pFabric and EDF",
    "pifo": "PIFO: pFabric and EDF",
    "pifo-ideal": "PIFO: pFabric (ideal)",
    "qvisor-edf": "QVISOR: EDF >> pFabric",
    "qvisor-share": "QVISOR: pFabric + EDF",
    "qvisor-pfabric": "QVISOR: pFabric >> EDF",
}
FIG4_TABLES = [
    ("Fig. 4a — pFabric mean FCT, small flows (0, 100 KB), ms",
     "mean_small_lb_ms"),
    ("Fig. 4b — pFabric mean FCT, big flows [1 MB, inf), ms",
     "mean_large_lb_ms"),
    ("(extra) EDF tenant deadline-met fraction", "edf_deadline_met"),
]
FIG2_NAMES = {
    "fifo": "FIFO",
    "pifo": "PIFO (naive ranks)",
    "qvisor": "QVISOR (static)",
    "qvisor-adapt": "QVISOR (+runtime)",
}
FIG2_COLUMNS = ["interactive_mean_fct_ms", "interactive_p99_fct_ms",
                "deadline_met", "background_phase1_gbps",
                "background_phase2_gbps", "adaptations"]


class SummaryError(Exception):
    pass


def cell(values, fmt):
    """One value as `fmt`; several as the median and the [min–max]."""
    if len(values) == 1:
        return fmt % values[0]
    return "%s [%s–%s]" % (fmt % statistics.median(values),
                           fmt % min(values), fmt % max(values))


def group(rows, path, keys, columns):
    """{key tuple: {column: [value per seed]}}, in first-seen order."""
    groups = {}
    for i, row in enumerate(rows):
        for name in keys + columns:
            if name not in row:
                raise SummaryError(f"{path}: grid row {i} lacks '{name}'")
        per = groups.setdefault(tuple(row[k] for k in keys),
                                {c: [] for c in columns})
        for c in columns:
            per[c].append(row[c])
    return groups


def seeds_of(rows):
    return len({row.get("seed") for row in rows})


def fig4_tables(rows, path):
    groups = group(rows, path, ["scheme", "load"],
                   [column for _, column in FIG4_TABLES])
    schemes = list(dict.fromkeys(s for s, _ in groups))
    loads = list(dict.fromkeys(l for _, l in groups))
    out = [f"{path}: {len(schemes)} schemes x {len(loads)} loads x "
           f"{seeds_of(rows)} seeds"]
    for title, column in FIG4_TABLES:
        table = {}
        for key in ((s, l) for s in schemes for l in loads):
            if key not in groups:
                raise SummaryError(f"{path}: no cell for scheme {key[0]} "
                                   f"at load {key[1]}")
            table[key] = cell(groups[key][column], "%.3f")
        width = max([26] + [len(text) for text in table.values()])
        out += ["", title,
                "%-6s" % "load" + "".join(
                    " | " + FIG4_NAMES.get(s, s).rjust(width)
                    for s in schemes)]
        for load in loads:
            out.append("%-6.2f" % load + "".join(
                " | " + table[(s, load)].rjust(width) for s in schemes))
    return out


def fig2_table(rows, path):
    groups = group(rows, path, ["scheme"], FIG2_COLUMNS)
    body = []
    for (scheme,), v in groups.items():
        body.append([
            FIG2_NAMES.get(scheme, scheme),
            "%s (p99 %s)" % (cell(v["interactive_mean_fct_ms"], "%.3f"),
                             cell(v["interactive_p99_fct_ms"], "%.3f")),
            cell([100.0 * x for x in v["deadline_met"]], "%.1f%%"),
            "%s -> %s" % (cell(v["background_phase1_gbps"], "%.3f"),
                          cell(v["background_phase2_gbps"], "%.3f")),
            cell(v["adaptations"], "%g"),
        ])
    header = ["scheme", "interactive FCT ms", "deadlines",
              "background Gb/s (p1->p2)", "adaptations"]
    widths = [max([w] + [len(r[i]) for r in body])
              for i, w in enumerate([20, 22, 10, 22, 0])]

    def line(fields, right):
        return " | ".join(f.rjust(w) if i in right else f.ljust(w)
                          for i, (f, w) in enumerate(zip(fields, widths)))

    return [f"{path}: {len(groups)} schemes x {seeds_of(rows)} seeds", "",
            line(header, ()).rstrip()] + [line(r, (2,)) for r in body]


RENDERERS = {"fig2": fig2_table, "fig4": fig4_tables}


def render(path):
    with open(path) as f:
        doc = json.load(f)
    renderer = RENDERERS.get(doc.get("experiment"))
    if renderer is None:
        raise SummaryError(f"{path}: not a fig2 or fig4 summary")
    if not doc.get("grid"):
        raise SummaryError(f"{path}: empty grid")
    return renderer(doc["grid"], path)


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 0 if argv else 1
    sys.stdout.reconfigure(encoding="utf-8")
    try:
        blocks = [render(path) for path in argv]
    except (OSError, ValueError, SummaryError) as e:
        print(f"fig_tables: {e}", file=sys.stderr)
        return 1
    print("\n\n".join("\n".join(block) for block in blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
