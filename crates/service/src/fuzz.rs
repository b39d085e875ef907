//! The scenario-matrix runner, with the service leg.
//!
//! [`run`] executes any [`Scenario`]: [`Path::Service`] scenarios here,
//! every other path through [`spray::verify::fuzz::run`]. A service
//! scenario runs a deterministic set of integer scatter jobs twice
//! through a [`ReductionService`] — submitted serially with batching off
//! (`batch_window = 1`, inline epilogues), then from two submitter
//! threads with batching and the pipelined epilogue on — each under the
//! scenario's seeded controller, which the service's dispatcher adopts.
//! With `i64` under `Sum` every run must be bit-identical to the
//! sequential loop whatever the interleaving, batch composition or
//! planted migration, so serial and concurrent submission must also
//! agree with each other.

use crate::{Job, JobResult, ReductionService, ServiceConfig, Ticket};
use ompsim::verify::mix64;
use spray::verify::adaptive_policy;
use spray::verify::fuzz::{self, under_session, Outcome, Path, Scenario};
use spray::{ExecutorPolicy, Sum};

/// One deterministic scatter job derived from `(seed, j)`.
struct CaseJob {
    tenant: u64,
    class: u64,
    init: Vec<i64>,
    iters: usize,
    salt: u64,
}

impl CaseJob {
    fn expected(&self) -> Vec<i64> {
        let mut out = self.init.clone();
        for i in 0..self.iters {
            let (idx, v) = update(self.salt, out.len(), i);
            out[idx] += v;
        }
        out
    }

    fn to_job(&self) -> Job<'static, i64> {
        let (n, salt) = (self.init.len(), self.salt);
        Job {
            tenant: self.tenant,
            class: self.class,
            out: self.init.clone(),
            iters: self.iters,
            body: Box::new(move |view, i| {
                let (idx, v) = update(salt, n, i);
                view.apply(idx, v);
            }),
        }
    }
}

#[inline]
fn update(salt: u64, n: usize, i: usize) -> (usize, i64) {
    let h = mix64(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ((h as usize) % n, 1 + ((h >> 32) % 7) as i64)
}

/// The seed's job set: 4–10 jobs across three tenants and up to two
/// shape classes (so some batches coalesce and some refuse to), with
/// jittered per-job iteration counts.
fn case_jobs(seed: u64) -> Vec<CaseJob> {
    let h = mix64(seed ^ 0xCA5E_CA5E);
    let n = 64 + (h % 193) as usize;
    let njobs = 4 + ((h >> 8) % 7) as usize;
    (0..njobs)
        .map(|j| {
            let jh = mix64(seed ^ 0xB10B ^ (j as u64) << 32);
            CaseJob {
                tenant: j as u64 % 3,
                class: jh % 2,
                init: (0..n).map(|i| (mix64(jh ^ i as u64) % 5) as i64).collect(),
                iters: 200 + (jh >> 16) as usize % 600,
                salt: mix64(seed ^ 0x5A17 ^ j as u64),
            }
        })
        .collect()
}

/// The scenario's service: its team and starting strategy, the shipped
/// adaptive policy when it migrates (so planted migrations replay), and
/// a seed-drawn loop schedule.
fn service_cfg(sc: &Scenario, batch_window: usize, pipeline: bool) -> ServiceConfig {
    ServiceConfig {
        threads: sc.threads,
        strategy: sc.strategy,
        policy: if sc.migrate {
            adaptive_policy()
        } else {
            ExecutorPolicy::Fixed
        },
        schedule: if mix64(sc.seed ^ 0xC0F1_6000) & 0x1000 == 0 {
            ompsim::Schedule::default()
        } else {
            ompsim::Schedule::Dynamic { chunk: 8 }
        },
        batch_window,
        pipeline,
    }
}

/// One submission leg under the scenario's session: every job's result,
/// in job order, each checked against the sequential loop.
fn leg(
    sc: &Scenario,
    jobs: &[CaseJob],
    label: &str,
    cfg: ServiceConfig,
    submitters: usize,
) -> Result<(Vec<Vec<i64>>, Outcome), String> {
    under_session(sc, |o| {
        let svc = ReductionService::<i64, Sum>::new(cfg);
        // Submitter `s` takes jobs `j ≡ s (mod submitters)`, submitting
        // all of them before waiting on any.
        let mut results: Vec<(usize, JobResult<i64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..submitters)
                .map(|k| {
                    let svc = &svc;
                    s.spawn(move || {
                        let tickets: Vec<(usize, Ticket<i64>)> = (k..jobs.len())
                            .step_by(submitters)
                            .map(|j| (j, svc.submit(jobs[j].to_job())))
                            .collect();
                        tickets
                            .into_iter()
                            .map(|(j, t)| (j, t.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        drop(svc);
        results.sort_by_key(|(j, _)| *j);
        o.regions += results.len();
        o.migrations += results
            .iter()
            .map(|(_, r)| r.report.migrations)
            .max()
            .unwrap_or(0);
        results
            .into_iter()
            .map(|(j, r)| {
                let want = jobs[j].expected();
                match (0..want.len()).find(|&i| r.out[i] != want[i]) {
                    None => Ok(r.out),
                    Some(i) => Err(format!(
                        "{sc}: {label} job {j} diverges from sequential at index {i} \
                         (got {}, want {})",
                        r.out[i], want[i]
                    )),
                }
            })
            .collect()
    })
}

/// Runs scenario `sc` on whichever crate owns its path; `Err` names the
/// first divergence.
pub fn run(sc: &Scenario) -> Result<Outcome, String> {
    if sc.path != Path::Service {
        return fuzz::run(sc);
    }
    let jobs = case_jobs(sc.seed);
    let (serial, mut o) = leg(sc, &jobs, "serial", service_cfg(sc, 1, false), 1)?;
    let window = 2 + (mix64(sc.seed ^ 0xBA7C) % 3) as usize;
    let (concurrent, c) = leg(sc, &jobs, "concurrent", service_cfg(sc, window, true), 2)?;
    o.absorb(c);
    // Implied by both matching the sequential loop, but asserted where
    // the claim is made.
    match (0..jobs.len()).find(|&j| serial[j] != concurrent[j]) {
        None => Ok(o),
        Some(j) => Err(format!(
            "{sc}: job {j} serial vs concurrent submission diverge"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_scenarios_match_sequential_and_plant_migrations() {
        let mut migrations = 0;
        for seed in 0..4 {
            let sc = Scenario {
                path: Path::Service,
                migrate: true,
                ..Scenario::draw(seed, 3)
            };
            let o = run(&sc).unwrap();
            assert!(o.regions >= 8, "{sc}: both legs ran every job");
            migrations += o.migrations;
        }
        // With migrate_per_mille >= 250 across four seeds, at least one
        // planted migration is overwhelmingly likely; a zero here means
        // the envelope is wired wrong, not bad luck.
        assert!(migrations > 0, "no seed planted a migration");
    }
}
