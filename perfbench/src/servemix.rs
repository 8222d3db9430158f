//! `serve-mix`: a served, duplicate-heavy request mix, sent back to back.
//!
//! An in-process `dynex_serve::Server` (one simulation worker, default
//! result cache) answers requests over every profile and policy at ~1M
//! references. One client thread sends them one after another, each as
//! soon as the last is answered, in whole rounds of ten: one request per
//! profile, nine of them repeating a configuration already asked for (a
//! cache hit) and one new configuration (a miss). A cache hit still
//! generates, decodes and digests the trace before its lookup; a miss adds
//! the queue and the kernel.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynex_cache::SplitMix64;
use dynex_experiments::api::{SimulationRequest, SimulationResponse, TraceSource};
use dynex_obs::json::{self, Json};
use dynex_serve::{client, ServeConfig, Server};

use crate::check::{self, Expected};
use crate::replay::POLICIES;
use crate::stats::{mean, median, quantile};
use crate::tracing::{program_stage_ms, Spans};
use crate::{peak_rss_mb, Args, RunResult, OUT_DIR};

/// References per generated request trace.
const REFS: usize = 1_000_000;
/// The geometries new configurations walk through, in this order, as
/// `(size, bytes, line)`: 7 sizes × 2 line sizes, so 10 profiles × 5
/// policies × 14 give 700 distinct configurations, fewer than the server's
/// 1024 cache entries. The order is fixed because a policy's footprint
/// depends on the geometry (with 16-byte lines the `ehc` and `opt` oracles
/// index a flat table where with 4-byte lines they hash, and peak memory
/// read 27 or 100 MB depending on which geometries a seeded order drew
/// first); a 25 s run reaches the second or third.
const GEOMETRIES: [(&str, u32, u32); 14] = [
    ("32K", 32768, 4),
    ("16K", 16384, 4),
    ("8K", 8192, 4),
    ("4K", 4096, 4),
    ("2K", 2048, 4),
    ("1K", 1024, 4),
    ("64K", 65536, 4),
    ("32K", 32768, 16),
    ("16K", 16384, 16),
    ("8K", 8192, 16),
    ("4K", 4096, 16),
    ("2K", 2048, 16),
    ("1K", 1024, 16),
    ("64K", 65536, 16),
];
/// Requests per round: one per profile.
const ROUND: usize = dynex_workload::spec::NAMES.len();
/// Set-ups per run; `setup_s` is their median. A set-up takes a few
/// milliseconds, so many are taken to steady the median.
const SETUP_REPS: usize = 25;
/// Transport timeout per socket operation.
const TIMEOUT: Duration = Duration::from_secs(60);
/// The server's latency stages, as `/metrics` names them.
const STAGES: [&str; 7] = [
    "accept",
    "parse",
    "cache-lookup",
    "queue-wait",
    "dispatch",
    "simulate",
    "respond",
];

/// Every distinct configuration of a run, in the order they are first
/// asked for, and the rounds that ask for them.
struct Plan {
    /// Configuration `k` with its profile index and geometry index.
    configs: Vec<(SimulationRequest, usize, usize)>,
    /// Configurations `0..ROUND`, one per profile, sent untimed before the
    /// rounds so every profile has a configuration to repeat.
    warmup: Vec<usize>,
    /// Round `r` asks for configuration `ROUND + r` (new) and repeats one
    /// earlier configuration of each other profile, in a seeded order.
    rounds: Vec<Vec<usize>>,
}

/// Fisher–Yates with the run's generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below_usize(i + 1));
    }
}

/// Draws the run's plan from `seed`. Configuration `k = 10a + b` (`a` in
/// `0..5`) is policy `b mod 5` of profile `(a + b) mod 10` (through a
/// seeded profile order) at geometry `k / 50`; the 50 values of `k mod 50`
/// name every (profile, policy) pair once. So the new configurations of
/// any five consecutive rounds cover the five policies, those of any ten
/// cover the ten profiles, and every round repeats exactly one
/// configuration of every other profile: the work of a run depends on how
/// many rounds fit, not on the seed.
fn plan(seed: u64) -> Result<Plan, String> {
    let mut rng = SplitMix64::new(seed);
    let names = dynex_workload::spec::NAMES;
    let mut profiles: Vec<usize> = (0..names.len()).collect();
    shuffle(&mut profiles, &mut rng);

    let per_geometry = ROUND * POLICIES.len();
    let mut configs = Vec::with_capacity(per_geometry * GEOMETRIES.len());
    for k in 0..per_geometry * GEOMETRIES.len() {
        let (a, b) = ((k / ROUND) % POLICIES.len(), k % ROUND);
        let profile = profiles[(a + b) % ROUND];
        let geometry = k / per_geometry;
        let (size, _, line) = GEOMETRIES[geometry];
        let request = SimulationRequest::builder()
            .org(POLICIES[b % POLICIES.len()])
            .size(size)
            .line(line)
            .profile(names[profile])
            .refs(REFS)
            .jobs(1)
            .build()
            .map_err(|e| e.to_string())?;
        configs.push((request, profile, geometry));
    }

    let warmup: Vec<usize> = (0..ROUND).collect();
    let mut issued: Vec<Vec<usize>> = vec![Vec::new(); ROUND];
    for &k in &warmup {
        issued[configs[k].1].push(k);
    }
    let mut rounds = Vec::with_capacity(configs.len() - ROUND);
    for fresh in ROUND..configs.len() {
        let fresh_profile = configs[fresh].1;
        let mut round: Vec<usize> = (0..ROUND)
            .filter(|&p| p != fresh_profile)
            .map(|p| issued[p][rng.below_usize(issued[p].len())])
            .collect();
        round.push(fresh);
        shuffle(&mut round, &mut rng);
        issued[fresh_profile].push(fresh);
        rounds.push(round);
    }
    Ok(Plan {
        configs,
        warmup,
        rounds,
    })
}

/// One request's fate, timed by the client.
struct Sample {
    config: usize,
    sent: Instant,
    done: Instant,
    /// The parsed answer of a 200, or why there is none.
    answer: Result<SimulationResponse, String>,
}

fn send(addr: SocketAddr, bodies: &[String], config: usize) -> Sample {
    let sent = Instant::now();
    let reply = client::call(addr, "POST", "/simulate", &bodies[config], TIMEOUT);
    let done = Instant::now();
    let answer = reply.and_then(|r| {
        if r.status != 200 {
            return Err(format!("status {}: {}", r.status, r.body));
        }
        SimulationResponse::from_json(&r.body)
            .ok_or_else(|| format!("unparsable 200 body {:?}", r.body))
    });
    Sample {
        config,
        sent,
        done,
        answer,
    }
}

/// Sends whole rounds back to back from this thread until `budget` has
/// passed (or the plan runs out), each request as soon as the last was
/// answered.
fn drive(
    addr: SocketAddr,
    bodies: &[String],
    rounds: &[Vec<usize>],
    budget: Duration,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    for round in rounds {
        if start.elapsed() >= budget {
            break;
        }
        samples.extend(round.iter().map(|&config| send(addr, bodies, config)));
    }
    samples
}

fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// `total_us / count` in ms per server stage, from `/metrics`.
fn stage_means(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let reply = client::call(addr, "GET", "/metrics", "", TIMEOUT)?;
    let doc: Json = json::parse(&reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let summary = doc
        .get("latency_summary")
        .ok_or("/metrics has no latency_summary")?;
    Ok(STAGES
        .iter()
        .map(|stage| {
            let mean_ms = summary
                .get(stage)
                .and_then(|s| Some((s.get("total_us")?.as_u64()?, s.get("count")?.as_u64()?)))
                .filter(|&(_, count)| count > 0)
                .map_or(0.0, |(total, count)| total as f64 / count as f64 / 1e3);
            (format!("serve.{}_ms", stage.replace('-', "_")), mean_ms)
        })
        .collect())
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn or_zero(values: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        f(values)
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut spans = Spans::new(args.traced);

    // Set-up: boot the server and draw the plan.
    let mut setups = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let server = start_server()?;
        let plan = plan(args.seed)?;
        let bodies: Vec<String> = plan.configs.iter().map(|(r, _, _)| r.to_json()).collect();
        setups.push(start.elapsed().as_secs_f64());
        spans.record("setup", None, start);
        if rep + 1 < SETUP_REPS {
            server.shutdown();
            server.join();
        } else {
            prepared = Some((server, plan, bodies));
        }
    }
    let (server, plan, bodies) = prepared.expect("at least one set-up ran");
    let addr = server.addr();

    let warmup: Vec<Sample> = plan
        .warmup
        .iter()
        .map(|&k| send(addr, &bodies, k))
        .collect();
    let samples = drive(addr, &bodies, &plan.rounds, args.seconds);
    let rss = peak_rss_mb();
    let stages = stage_means(addr)?;
    let counter = |name: &str| server.counter(name) as f64;
    let (hits, sims, coalesced) = (
        counter("cache-hits"),
        counter("sims-executed"),
        counter("coalesced-hits"),
    );
    server.shutdown();
    server.join();

    // The client's own copy of every profile trace, for the output checks:
    // generated only now, so neither set-up time nor peak memory holds it.
    let mut traces: Vec<(String, Vec<u32>)> = Vec::new();
    for profile in dynex_workload::spec::all() {
        let generate = Instant::now();
        let trace = profile.trace(REFS);
        spans.record("workload.generate", None, generate);
        traces.push((
            profile.name().to_owned(),
            trace.iter().map(|a| a.addr()).collect(),
        ));
    }

    let mut result = RunResult {
        attempted: (warmup.len() + samples.len()) as u64,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let latency: Vec<f64> = samples.iter().map(|s| ms(s.sent, s.done)).collect();
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    for s in &samples {
        spans.record_between("client.request", None, s.sent, s.done);
        if let Ok(answer) = &s.answer {
            if answer.cached {
                hit_ms.push(ms(s.sent, s.done));
            } else {
                miss_ms.push(ms(s.sent, s.done));
            }
        }
    }
    for s in warmup.iter().chain(&samples) {
        if let Err(e) = &s.answer {
            eprintln!(
                "perfbench: request for configuration {} failed: {e}",
                s.config
            );
            result.failed += 1;
        }
    }
    if latency.is_empty() {
        return Err("no round fitted in the run".to_owned());
    }
    if args.traced {
        let n = result.attempted;
        result.push("traced.op_mean_ms", mean(&latency), "ms");
        result.push("client.hit_p50_ms", or_zero(&hit_ms, median), "ms");
        result.push("client.miss_p50_ms", or_zero(&miss_ms, median), "ms");
        result.push("client.req_p90_ms", quantile(&latency, 0.9), "ms");
        result.push(
            "workload.generate_ms",
            spans.mean_ms("workload.generate"),
            "ms",
        );
        for (name, value) in stages {
            result.push(name, value, "ms");
        }
        result.push(
            "kernel.next_use_ms",
            program_stage_ms("kernel.next-use", n),
            "ms",
        );
        result.push(
            "kernel.simulate_ms",
            program_stage_ms("kernel.simulate", n),
            "ms",
        );
        result.push("serve.cache_hits", hits, "count");
        result.push("serve.sims_executed", sims, "count");
        result.push("serve.coalesced_hits", coalesced, "count");
        result.push("serve.hit_ratio", hits / n as f64, "ratio");
        spans.write_jsonl(&format!("{OUT_DIR}/spans-serve-mix-{}.jsonl", args.seed))?;
    } else {
        result.push("setup_s", median(&setups), "s");
        result.push("peak_rss_mb", rss, "MB");
        result.push("op_p50_ms", median(&latency), "ms");
        result.push("op_mean_ms", mean(&latency), "ms");
    }

    // Checks, outside the timed rounds: every repeat answers identically,
    // and each (profile, geometry) answer set passes the policy checks.
    let answered: Vec<(usize, &SimulationResponse)> = warmup
        .iter()
        .chain(&samples)
        .filter_map(|s| s.answer.as_ref().ok().map(|a| (s.config, a)))
        .collect();
    result.errors.extend(check::check_repeats(
        answered.iter().map(|(k, a)| (bodies[*k].as_str(), *a)),
    ));
    for (profile, (name, addrs)) in traces.iter().enumerate() {
        for (geometry, &(size, bytes, line)) in GEOMETRIES.iter().enumerate() {
            let mut per_policy: Vec<(&str, &SimulationResponse)> = Vec::new();
            for policy in POLICIES {
                let found = answered.iter().find(|(k, _)| {
                    let (r, p, g) = &plan.configs[*k];
                    *p == profile && *g == geometry && r.org.name() == policy
                });
                if let Some((k, answer)) = found {
                    let (r, _, _) = &plan.configs[*k];
                    debug_assert_eq!(r.trace, TraceSource::Profile(name.clone()));
                    per_policy.push((policy, answer));
                }
            }
            if !per_policy.is_empty() {
                let expected = Expected::compute(addrs, bytes, line);
                result.errors.extend(check::check_policies(
                    &format!("serve-mix {name} {size}/{line}B"),
                    &expected,
                    &per_policy,
                ));
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_pair_and_repeats_each_other_profile_once_per_round() {
        let plan = plan(7).unwrap();
        assert_eq!(plan.configs.len(), 700);
        let mut seen = std::collections::BTreeSet::new();
        for (r, p, g) in &plan.configs {
            assert!(seen.insert((*p, *g, r.org.name().to_owned())));
        }
        for (r, round) in plan.rounds.iter().enumerate() {
            let mut profiles: Vec<usize> = round.iter().map(|&k| plan.configs[k].1).collect();
            profiles.sort_unstable();
            assert_eq!(profiles, (0..ROUND).collect::<Vec<_>>());
            assert!(round.contains(&(ROUND + r)));
            assert!(round.iter().all(|&k| k <= ROUND + r));
        }
        let first: Vec<&str> = plan.rounds[..5]
            .iter()
            .map(|round| plan.configs[*round.iter().max().unwrap()].0.org.name())
            .collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        let mut want = POLICIES.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }
}
