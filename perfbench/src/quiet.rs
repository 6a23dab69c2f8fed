//! Steal-filtered window statistics.
//!
//! On a shared host, CPU time stolen by neighbouring machines slows
//! every operation that runs while it happens, and its level drifts over
//! seconds to minutes. A measured window is therefore cut into blocks;
//! the host's steal share is read for every block from `/proc/stat`, and
//! the window's timings are taken over the quietest third of the blocks
//! (with every block as quiet as the last of that third).
//! The choice of blocks depends only on the host's counters, never on
//! the timings themselves.

use std::time::Instant;

use crate::host::CpuTicks;

/// One timed operation of a window.
#[derive(Clone, Copy, Debug)]
pub struct TimedOp {
    pub end: Instant,
    pub secs: f64,
    pub rows: u64,
    pub update: bool,
}

/// A window's operations with host samples taken at block boundaries.
#[derive(Default)]
pub struct Sampled {
    pub ops: Vec<TimedOp>,
    pub samples: Vec<(Instant, CpuTicks)>,
    /// Sample intervals per block.
    pub per_block: usize,
}

/// The operations of the quietest third of a window's blocks.
#[derive(Debug, Default)]
pub struct Quiet {
    pub predict_s: Vec<f64>,
    pub update_s: Vec<f64>,
    pub rows: u64,
    /// Wall time of the kept blocks.
    pub seconds: f64,
    pub blocks: usize,
    pub kept: usize,
    /// Steal share over the kept blocks and over all blocks.
    pub kept_steal: f64,
    pub all_steal: f64,
}

/// A set-up or a restart in progress.
pub struct Event {
    started: Instant,
    ticks: CpuTicks,
}

impl Event {
    pub fn start() -> Event {
        Event {
            started: Instant::now(),
            ticks: CpuTicks::now(),
        }
    }

    /// (wall seconds, host steal share) since `start`.
    pub fn finish(&self) -> (f64, f64) {
        (
            self.started.elapsed().as_secs_f64(),
            CpuTicks::now().steal_share_since(&self.ticks),
        )
    }
}

/// The steal share at or under which the quietest third of `shares`
/// lies; every share equal to it is kept too, so that a quiet run keeps
/// everything rather than its first third.
fn threshold(shares: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = shares.collect();
    sorted.sort_by(f64::total_cmp);
    let keep = sorted.len().div_ceil(3);
    sorted.get(keep.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// The values of the quietest third of `events`, (value, steal share).
pub fn quietest(events: &[(f64, f64)]) -> Vec<f64> {
    let limit = threshold(events.iter().map(|e| e.1));
    events
        .iter()
        .filter(|e| e.1 <= limit)
        .map(|e| e.0)
        .collect()
}

impl Sampled {
    pub fn sample(&mut self) {
        self.samples.push((Instant::now(), CpuTicks::now()));
    }
}

/// The operations of the quietest third of the blocks of all `windows`.
pub fn quiet(windows: &[Sampled]) -> Quiet {
    struct Block<'a> {
        start: Instant,
        end: Instant,
        steal: u64,
        total: u64,
        ops: &'a [TimedOp],
    }
    let blocks: Vec<Block<'_>> = windows
        .iter()
        .flat_map(|w| {
            // A window shorter than one block is one block.
            let per = w
                .per_block
                .clamp(1, w.samples.len().saturating_sub(1).max(1));
            w.samples.windows(per + 1).step_by(per).map(move |s| Block {
                start: s[0].0,
                end: s[per].0,
                steal: s[per].1.steal.saturating_sub(s[0].1.steal),
                total: s[per].1.total.saturating_sub(s[0].1.total),
                ops: &w.ops,
            })
        })
        .collect();
    let share = |b: &Block<'_>| b.steal as f64 / b.total.max(1) as f64;
    let limit = threshold(blocks.iter().map(share));
    let mut q = Quiet {
        blocks: blocks.len(),
        ..Quiet::default()
    };
    let (mut steal, mut total, mut all_steal, mut all_total) = (0, 0, 0, 0);
    for b in &blocks {
        all_steal += b.steal;
        all_total += b.total;
        if share(b) > limit {
            continue;
        }
        q.kept += 1;
        q.seconds += b.end.duration_since(b.start).as_secs_f64();
        steal += b.steal;
        total += b.total;
        for op in b
            .ops
            .iter()
            .filter(|op| op.end > b.start && op.end <= b.end)
        {
            if op.update {
                q.update_s.push(op.secs);
            } else {
                q.predict_s.push(op.secs);
                q.rows += op.rows;
            }
        }
    }
    q.kept_steal = steal as f64 / total.max(1) as f64;
    q.all_steal = all_steal as f64 / all_total.max(1) as f64;
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn keeps_the_quietest_third_of_the_events() {
        let events = [(1.0, 0.2), (2.0, 0.0), (3.0, 0.1), (4.0, 0.0), (5.0, 0.3)];
        assert_eq!(quietest(&events), vec![2.0, 4.0]);
        let quiet = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        assert_eq!(quietest(&quiet), vec![1.0, 2.0, 3.0]);
        assert!(quietest(&[]).is_empty());
    }

    #[test]
    fn keeps_the_quietest_third_of_the_blocks() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let ticks = |steal: u64, total: u64| CpuTicks { steal, total };
        // Four blocks of one interval each; the first and third are quiet.
        let mut s = Sampled {
            per_block: 1,
            ..Sampled::default()
        };
        s.samples = vec![
            (at(0), ticks(0, 0)),
            (at(100), ticks(0, 100)),
            (at(200), ticks(30, 200)),
            (at(300), ticks(31, 300)),
            (at(400), ticks(61, 400)),
        ];
        for (end, secs) in [(50, 1.0), (150, 9.0), (250, 2.0), (350, 9.0)] {
            s.ops.push(TimedOp {
                end: at(end),
                secs,
                rows: 3,
                update: false,
            });
        }
        let q = quiet(std::slice::from_ref(&s));
        assert_eq!((q.blocks, q.kept), (4, 2));
        assert_eq!(q.predict_s, vec![1.0, 2.0]);
        assert_eq!(q.rows, 6);
        assert!((q.seconds - 0.2).abs() < 1e-9);
        assert!((q.kept_steal - 1.0 / 200.0).abs() < 1e-12);
    }
}
