//! Output checks that do not trust the program.
//!
//! The direct-mapped tag array and the dynamic-exclusion state machine here
//! are written from the paper (PAPER.md §2, Figure 1), not from the
//! program's kernels, so an exact match is evidence rather than a tautology.
//! The remaining checks are properties every correct answer has: OPT never
//! misses more than any direct-mapped policy, no policy misses fewer times
//! than there are distinct lines, and direct-mapped miss rates never rise
//! with size at a fixed line size (inclusion).

use std::collections::{BTreeMap, HashSet};

use dynex_experiments::api::SimulationResponse;
use dynex_experiments::Table;

/// Miss counts of the conventional direct-mapped cache.
pub fn dm_misses(addrs: &[u32], size: u32, line: u32) -> u64 {
    let shift = line.trailing_zeros();
    let sets = (size / line) as usize;
    // Line addresses are below 2^30, so u32::MAX never names a real line.
    let mut resident = vec![u32::MAX; sets];
    let mut misses = 0;
    for &addr in addrs {
        let block = addr >> shift;
        let set = block as usize & (sets - 1);
        if resident[set] != block {
            resident[set] = block;
            misses += 1;
        }
    }
    misses
}

/// Dynamic-exclusion outcome counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeCounts {
    pub misses: u64,
    pub loads: u64,
    pub bypasses: u64,
}

/// The Figure 1 state machine, one sticky bit per line and one hit-last bit
/// per block (all clear at the start):
///
/// | condition               | action                                   |
/// |-------------------------|------------------------------------------|
/// | hit                     | `s := 1; h[x] := 1`                      |
/// | miss, `s == 0`          | load `x`; `s := 1; h[x] := 1`            |
/// | miss, `s == 1, h[x]`    | load `x`; `h[x] := 0`                    |
/// | miss, `s == 1, !h[x]`   | bypass `x`; `s := 0`                     |
pub fn de_counts(addrs: &[u32], size: u32, line: u32) -> DeCounts {
    let shift = line.trailing_zeros();
    let sets = (size / line) as usize;
    let mut resident = vec![u32::MAX; sets];
    let mut sticky = vec![false; sets];
    let mut hit_last: HashSet<u32> = HashSet::new();
    let mut counts = DeCounts::default();
    for &addr in addrs {
        let block = addr >> shift;
        let set = block as usize & (sets - 1);
        if resident[set] == block {
            sticky[set] = true;
            hit_last.insert(block);
            continue;
        }
        counts.misses += 1;
        if !sticky[set] {
            resident[set] = block;
            sticky[set] = true;
            hit_last.insert(block);
            counts.loads += 1;
        } else if hit_last.remove(&block) {
            resident[set] = block;
            counts.loads += 1;
        } else {
            sticky[set] = false;
            counts.bypasses += 1;
        }
    }
    counts
}

/// Distinct lines referenced: the compulsory misses every policy pays.
pub fn distinct_lines(addrs: &[u32], line: u32) -> u64 {
    let shift = line.trailing_zeros();
    addrs
        .iter()
        .map(|a| a >> shift)
        .collect::<HashSet<u32>>()
        .len() as u64
}

/// The benchmark's own answers for one (trace, size, line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub accesses: u64,
    pub distinct: u64,
    pub dm: u64,
    pub de: DeCounts,
}

impl Expected {
    pub fn compute(addrs: &[u32], size: u32, line: u32) -> Expected {
        Expected {
            accesses: addrs.len() as u64,
            distinct: distinct_lines(addrs, line),
            dm: dm_misses(addrs, size, line),
            de: de_counts(addrs, size, line),
        }
    }
}

/// Checks the responses of every policy over one trace and geometry.
/// `responses` pairs each policy's wire name with its answer; every policy
/// in the benchmark's set is a direct-mapped organization.
pub fn check_policies(
    context: &str,
    expected: &Expected,
    responses: &[(&str, &SimulationResponse)],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (policy, r) in responses {
        let misses = r.stats.misses();
        if r.stats.accesses() != expected.accesses {
            errors.push(format!(
                "{context} {policy}: {} accesses, the trace has {}",
                r.stats.accesses(),
                expected.accesses
            ));
        }
        if misses < expected.distinct {
            errors.push(format!(
                "{context} {policy}: {misses} misses is below the {} compulsory misses",
                expected.distinct
            ));
        }
        match *policy {
            "dm" if misses != expected.dm => errors.push(format!(
                "{context} dm: {misses} misses, the benchmark's tag array counts {}",
                expected.dm
            )),
            "de" => {
                let got = r.de.map(|d| (misses, d.loads, d.bypasses));
                let want = (expected.de.misses, expected.de.loads, expected.de.bypasses);
                if got != Some(want) {
                    errors.push(format!(
                        "{context} de: (misses, loads, bypasses) = {got:?}, the benchmark's \
                         Figure 1 machine gives {want:?}"
                    ));
                }
            }
            _ => {}
        }
    }
    if let Some((_, opt)) = responses.iter().find(|(p, _)| *p == "opt") {
        for (policy, r) in responses {
            if r.stats.misses() < opt.stats.misses() {
                errors.push(format!(
                    "{context}: opt misses {} exceed {policy}'s {}",
                    opt.stats.misses(),
                    r.stats.misses()
                ));
            }
        }
    }
    errors
}

/// Checks that every answer to the same request carries the same label,
/// statistics, exclusion counters and key. `answers` pairs a request
/// identity with one answer to it.
pub fn check_repeats<'a>(
    answers: impl IntoIterator<Item = (&'a str, &'a SimulationResponse)>,
) -> Vec<String> {
    let mut first: BTreeMap<&str, &SimulationResponse> = BTreeMap::new();
    let mut errors = Vec::new();
    for (request, answer) in answers {
        let seen = *first.entry(request).or_insert(answer);
        let same = seen.label == answer.label
            && seen.stats == answer.stats
            && seen.de == answer.de
            && seen.key == answer.key;
        if !same {
            errors.push(format!(
                "request {request} answered differently when repeated: {} vs {}",
                seen.to_json(),
                answer.to_json()
            ));
        }
    }
    errors
}

/// The column whose header is exactly `header`.
fn column(table: &Table, header: &str) -> Result<usize, String> {
    table
        .headers()
        .iter()
        .position(|h| h == header)
        .ok_or_else(|| format!("{:?}: no column {header:?}", table.title()))
}

fn numeric(table: &Table, row: usize, col: usize) -> Result<f64, String> {
    let cell = table.cell(row, col).unwrap_or("");
    cell.parse().map_err(|_| {
        format!(
            "{:?}: cell ({row}, {col}) {cell:?} is not a number",
            table.title()
        )
    })
}

/// Checks that the `header` column never rises down the rows while the
/// first column (the cache size) strictly grows.
pub fn check_dm_monotone(table: &Table, header: &str) -> Vec<String> {
    let run = || -> Result<Vec<String>, String> {
        let col = column(table, header)?;
        let mut errors = Vec::new();
        for row in 1..table.n_rows() {
            let (size0, size1) = (numeric(table, row - 1, 0)?, numeric(table, row, 0)?);
            let (rate0, rate1) = (numeric(table, row - 1, col)?, numeric(table, row, col)?);
            if size1 <= size0 {
                errors.push(format!(
                    "{:?}: sizes not increasing at row {row}",
                    table.title()
                ));
            }
            if rate1 > rate0 {
                errors.push(format!(
                    "{:?}: {header} rises from {rate0} at {size0} to {rate1} at {size1}",
                    table.title()
                ));
            }
        }
        Ok(errors)
    };
    run().unwrap_or_else(|e| vec![e])
}

/// Checks Figure 4's direct-mapped column against the benchmark's own
/// average at the printed precision. `instr` holds each profile's
/// instruction-fetch addresses.
pub fn check_fig4_dm(table: &Table, instr: &[Vec<u32>]) -> Vec<String> {
    let run = || -> Result<Vec<String>, String> {
        let col = column(table, "direct-mapped")?;
        let mut errors = Vec::new();
        for row in 0..table.n_rows() {
            let kb = numeric(table, row, 0)? as u32;
            let rates: f64 = instr
                .iter()
                .map(|addrs| dm_misses(addrs, kb * 1024, 4) as f64 / addrs.len() as f64 * 100.0)
                .sum();
            let want = format!("{:.3}", rates / instr.len() as f64);
            let got = table.cell(row, col).unwrap_or("");
            if got != want {
                errors.push(format!(
                    "Figure 4 at {kb}KB: direct-mapped {got}, the benchmark's average is {want}"
                ));
            }
        }
        Ok(errors)
    };
    run().unwrap_or_else(|e| vec![e])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex::DeStats;
    use dynex_cache::{CacheConfig, CacheStats, KindFilter};

    fn response(misses: u64, accesses: u64, de: Option<(u64, u64)>) -> SimulationResponse {
        SimulationResponse {
            label: "test".to_owned(),
            stats: CacheStats::from_counts(accesses, misses),
            de: de.map(|(loads, bypasses)| DeStats { loads, bypasses }),
            key: "k".to_owned(),
            cached: false,
        }
    }

    /// Word addresses of a loop pattern: `pattern` names blocks, one word
    /// each, all mapping to set 0 of a one-line cache.
    fn words(pattern: &[u32]) -> Vec<u32> {
        pattern.iter().map(|b| b * 4).collect()
    }

    #[test]
    fn de_machine_reproduces_section3_loop_patterns() {
        // (a b)^10 on one line: DM misses every reference; DE settles to
        // keeping one block, about half of DM's misses.
        let ab: Vec<u32> = (0..10).flat_map(|_| [0, 1]).collect();
        let ab = words(&ab);
        assert_eq!(dm_misses(&ab, 4, 4), 20);
        let de = de_counts(&ab, 4, 4);
        assert!(de.misses <= 12, "{de:?}");
        assert_eq!(de.misses, de.loads + de.bypasses);
        // (a^10 b)^10: DM misses twice per iteration after the first; DE
        // learns to exclude b and approaches the optimal 10 + 1.
        let pattern: Vec<u32> = (0..10)
            .flat_map(|_| std::iter::repeat_n(0, 10).chain([1]))
            .collect();
        let pattern = words(&pattern);
        assert_eq!(dm_misses(&pattern, 4, 4), 20);
        let de = de_counts(&pattern, 4, 4);
        assert!(de.misses <= 13, "{de:?}");
    }

    #[test]
    fn own_simulators_match_the_program_kernels() {
        let trace = dynex_workload::spec::profile("li").unwrap().trace(200_000);
        let addrs: Vec<u32> = trace.iter().map(|a| a.addr()).collect();
        for (size, line) in [(1024, 4), (8192, 16), (32 * 1024, 4)] {
            let config = CacheConfig::direct_mapped(size, line).unwrap();
            assert_eq!(
                dm_misses(&addrs, size, line),
                dynex_cache::batch_dm(config, &addrs).misses()
            );
            let de = dynex_cache::batch_de(config, &addrs);
            let own = de_counts(&addrs, size, line);
            assert_eq!(
                (own.misses, own.loads, own.bypasses),
                (de.stats.misses(), de.loads, de.bypasses)
            );
        }
        let decoded = dynex_cache::decode_addrs(trace.as_packed(), KindFilter::All);
        assert_eq!(decoded, addrs);
    }

    fn good_set(e: &Expected) -> Vec<(&'static str, SimulationResponse)> {
        vec![
            ("dm", response(e.dm, e.accesses, None)),
            (
                "de",
                response(e.de.misses, e.accesses, Some((e.de.loads, e.de.bypasses))),
            ),
            ("opt", response(e.distinct, e.accesses, None)),
            ("ehc", response(e.dm - 1, e.accesses, None)),
        ]
    }

    /// Runs the policy checks with one answer replaced.
    fn perturbed(e: &Expected, index: usize, answer: SimulationResponse) -> Vec<String> {
        let mut set = good_set(e);
        set[index].1 = answer;
        let refs: Vec<(&str, &SimulationResponse)> = set.iter().map(|(p, r)| (*p, r)).collect();
        check_policies("t", e, &refs)
    }

    fn fails_with(errors: Vec<String>, needle: &str) {
        assert!(
            errors.iter().any(|e| e.contains(needle)),
            "expected an error containing {needle:?}, got {errors:?}"
        );
    }

    #[test]
    fn policy_checks_fail_on_perturbed_results() {
        // A 150-word loop body on a 128-line cache, calling one of three
        // 20-word helpers that conflict with it.
        let addrs: Vec<u32> = (0..40u32)
            .flat_map(|r| {
                let helper = 2048 + (r % 3) * 512;
                (0..150u32)
                    .map(|i| i * 4)
                    .chain((0..20u32).map(move |i| helper + i * 4))
            })
            .collect();
        let e = Expected::compute(&addrs, 512, 4);
        let (de, n) = (e.de, e.accesses);
        assert!(e.dm > e.distinct + 2 && de.misses > e.distinct, "{e:?}");
        let good = good_set(&e);
        let refs: Vec<(&str, &SimulationResponse)> = good.iter().map(|(p, r)| (*p, r)).collect();
        assert_eq!(check_policies("t", &e, &refs), Vec::<String>::new());

        fails_with(perturbed(&e, 0, response(e.dm + 1, n, None)), "tag array");
        let de_off = response(de.misses - 1, n, Some((de.loads, de.bypasses)));
        fails_with(perturbed(&e, 1, de_off), "Figure 1");
        let de_swapped = response(de.misses, n, Some((de.loads + 1, de.bypasses - 1)));
        fails_with(perturbed(&e, 1, de_swapped), "Figure 1");
        fails_with(perturbed(&e, 2, response(e.dm, n, None)), "opt misses");
        fails_with(
            perturbed(&e, 2, response(e.distinct - 1, n, None)),
            "compulsory",
        );
        fails_with(
            perturbed(&e, 3, response(e.dm - 1, n - 1, None)),
            "accesses",
        );
    }

    #[test]
    fn repeat_check_fails_on_a_different_key_or_count() {
        let a = response(10, 100, None);
        let mut b = a.clone();
        b.cached = true;
        assert!(check_repeats([("x", &a), ("x", &b)]).is_empty());
        let mut other_key = a.clone();
        other_key.key = "other".to_owned();
        assert_eq!(check_repeats([("x", &a), ("x", &other_key)]).len(), 1);
        let off_by_one = response(11, 100, None);
        assert_eq!(
            check_repeats([("x", &a), ("y", &off_by_one), ("x", &off_by_one)]).len(),
            1
        );
    }

    fn size_table(header: &str, rows: &[(u32, &str, &str)]) -> Table {
        let mut t = Table::new("t", vec!["size KB", header, "dynamic exclusion"]);
        for (kb, dm, de) in rows {
            t.push_row(vec![kb.to_string(), (*dm).to_owned(), (*de).to_owned()]);
        }
        t
    }

    #[test]
    fn monotone_check_fails_on_a_rising_dm_column() {
        let good = size_table("DM miss %", &[(1, "5.000", "4.000"), (2, "3.000", "3.500")]);
        assert!(check_dm_monotone(&good, "DM miss %").is_empty());
        let rising = size_table("DM miss %", &[(1, "3.000", "4.000"), (2, "5.000", "3.500")]);
        assert_eq!(check_dm_monotone(&rising, "DM miss %").len(), 1);
        let reordered = size_table("DM miss %", &[(2, "5.000", "4.000"), (1, "3.000", "3.500")]);
        assert_eq!(check_dm_monotone(&reordered, "DM miss %").len(), 1);
        assert_eq!(check_dm_monotone(&good, "missing").len(), 1);
    }

    #[test]
    fn fig4_check_fails_on_a_swapped_column() {
        let instr: Vec<Vec<u32>> = (0..3u32)
            .map(|p| (0..4000u32).map(|i| ((i * (p + 3)) % 900) * 4).collect())
            .collect();
        let avg = |kb: u32| {
            let sum: f64 = instr
                .iter()
                .map(|a| dm_misses(a, kb * 1024, 4) as f64 / a.len() as f64 * 100.0)
                .sum();
            format!("{:.3}", sum / 3.0)
        };
        let (one, two) = (avg(1), avg(2));
        let good = size_table("direct-mapped", &[(1, &one, "0.100"), (2, &two, "0.050")]);
        assert!(check_fig4_dm(&good, &instr).is_empty());
        let swapped = size_table("direct-mapped", &[(1, "0.100", &one), (2, "0.050", &two)]);
        assert_eq!(check_fig4_dm(&swapped, &instr).len(), 2);
    }
}
