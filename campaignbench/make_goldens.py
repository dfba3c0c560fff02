"""Regenerate ``goldens.json``: the expected outputs every pass is checked
against.

The goldens are taken from the program as it was when the benchmark was
added and must only be regenerated for a deliberate, documented model
correction -- never to make a failing pass pass.  Run from the repo root::

    python3 campaignbench/make_goldens.py
"""

from __future__ import annotations

import json
import sys

from session import GOLDENS, campaign_digest, record_digest


def main() -> int:
    import nests
    from repro.api import CampaignConfig, CampaignSession
    from repro.perf.trace import iterate_addresses, trace_traffic

    result = CampaignSession(CampaignConfig()).run()
    cells = {f"{bench}/{variant}": record_digest(record)
             for (bench, variant), record in sorted(result.records.items())}
    trace = {}
    for nid, nest in nests.build_pool():
        for name, levels in nests.HIERARCHIES.items():
            line = levels[0].line_bytes
            accesses = sum((addr + width - 1) // line - addr // line + 1
                           for addr, width, _w in iterate_addresses(nest))
            trace[f"{nid}|{name}"] = {
                "boundary_bytes": list(trace_traffic(nest, levels).boundary_bytes),
                "accesses": accesses,
            }
    doc = {
        "campaign": {"digest": campaign_digest(result.records), "cells": cells},
        "trace": trace,
    }
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}: {len(cells)} cells, digest {doc['campaign']['digest']}, "
          f"{len(trace)} traces", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
