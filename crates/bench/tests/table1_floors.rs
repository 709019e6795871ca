//! Table 1's absolute floors, held over the checked-in `BENCH_9.json`:
//! the fused rows must stay at or above pipe 1 byte 20×, open+close
//! `/dev/null` 15× and `/dev/tty` 8×. CI regenerates the file and `cmp`s
//! it with the checked-in one, so a floor that holds here holds for the
//! commit that produced it.

const BENCH_9: &str = include_str!("../../../BENCH_9.json");

/// The `(what, measured)` pairs of the `"table1"` array: one row object
/// per line, as `tables --json` writes them.
fn table1_rows() -> Vec<(&'static str, f64)> {
    let start = BENCH_9.find("\"table1\": [").expect("a table1 array");
    let body = &BENCH_9[start..];
    // The array closer sits alone on its line; a bare ']' would stop at
    // the "[speedup]" inside the first row label.
    let body = &body[..body.find("\n  ]").expect("a closed table1 array")];
    body.lines()
        .filter_map(|line| {
            let what = line.split("\"what\": \"").nth(1)?.split('"').next()?;
            let measured = line.split("\"measured\": ").nth(1)?.split(',').next()?;
            Some((what, measured.parse().expect("a number")))
        })
        .collect()
}

#[test]
fn table1_fused_rows_hold_their_absolute_floors() {
    let rows = table1_rows();
    assert_eq!(rows.len(), 7, "seven Table 1 programs: {rows:?}");
    for (needle, floor) in [
        ("pipe, 1 byte", 20.0),
        ("/dev/null", 15.0),
        ("/dev/tty", 8.0),
    ] {
        let (what, m) = rows
            .iter()
            .find(|(w, _)| w.contains(needle))
            .unwrap_or_else(|| panic!("no Table 1 row matching {needle:?}"));
        assert!(*m >= floor, "{what}: {m:.2}x < absolute floor {floor}x");
    }
}
