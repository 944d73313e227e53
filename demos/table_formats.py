#!/usr/bin/env python3
"""Render the weight-4 character table in the three formats that
``hcchar table`` prints, through the library, and show the JSON form of one
value.

The renderers take a table keyed by (lam, mu) cell, as char_table returns
it, and read its values in table order.  ``hcchar table`` streams the same
text cell by cell, from values it renders as they are computed.
"""

import json

from hcchar.characters import char_table
from hcchar.cli import render_table_csv, render_table_json, render_table_latex


def main() -> None:
    n = 4
    table = char_table(n)
    for name, render in (
        ("csv", render_table_csv),
        ("latex", render_table_latex),
        ("json", render_table_json),
    ):
        print(f"=== --format {name} ===")
        print(render(n, table).rstrip("\n"))
        print()
    value = table[((3, 1), (3, 1))]
    print(f"the cell lambda=3,1, mu=3,1 holds {value.to_text()}")
    print(f'and "poly": {json.dumps(value.to_json())} in the json rendering')


if __name__ == "__main__":
    main()
