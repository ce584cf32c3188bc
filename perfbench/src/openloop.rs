//! Open-loop load generation: one generator thread submits job `i` when
//! it falls due (`start + i * interval`) whether or not earlier jobs have
//! finished, and a waiter thread per job blocks until its result arrives.
//! Latency runs from the *due* time, so a generator that falls behind
//! still charges the delay to the jobs it held up.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

pub struct Arrival<R> {
    pub index: usize,
    /// Seconds after the start at which the job fell due.
    pub due_s: f64,
    /// Seconds after the start at which the generator submitted it.
    pub sent_s: f64,
    /// Seconds after the start at which its wait returned.
    pub done_s: f64,
    pub result: R,
}

impl<R> Arrival<R> {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator submitted this job.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Submit `jobs` jobs at a fixed interval and wait for all of them. A
/// job is done when `wait` returns; `finish` then checks its result off
/// the clock. Returns the arrivals in completion order and the time from
/// the start to the last completion.
pub fn run<H: Send, W, R: Send>(
    jobs: usize,
    interval: Duration,
    submit: impl Fn(usize) -> H + Sync,
    wait: impl Fn(H) -> W + Sync,
    finish: impl Fn(usize, W) -> R + Sync,
) -> (Vec<Arrival<R>>, Duration) {
    let start = Instant::now();
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let (tx, rx) = mpsc::channel();
    let (submit, wait, finish) = (&submit, &wait, &finish);
    let done = thread::scope(|s| {
        s.spawn(move || {
            for index in 0..jobs {
                let due = start + interval * index as u32;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let sent = Instant::now();
                let h = submit(index);
                let tx = tx.clone();
                s.spawn(move || {
                    let w = wait(h);
                    let done = Instant::now();
                    let result = finish(index, w);
                    // The receiver outlives every sender in this scope.
                    let _ = tx.send(Arrival {
                        index,
                        due_s: secs(due),
                        sent_s: secs(sent),
                        done_s: secs(done),
                        result,
                    });
                });
            }
        });
        rx.iter().collect::<Vec<_>>()
    });
    let last = done.iter().map(|a| a.done_s).fold(0.0, f64::max);
    (done, Duration::from_secs_f64(last))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_until(t: Instant) {
        let now = Instant::now();
        if t > now {
            thread::sleep(t - now);
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_even_when_the_generator_is_late() {
        let interval = Duration::from_millis(5);
        // Job 0's submit stalls the generator for 40 ms, so jobs 1..4 are
        // all sent late; each job completes 10 ms after it is sent.
        let submit = |i: usize| {
            if i == 0 {
                thread::sleep(Duration::from_millis(40));
            }
            Instant::now() + Duration::from_millis(10)
        };
        let (mut arrivals, total) = run(5, interval, submit, sleep_until, |_, ()| ());
        arrivals.sort_by_key(|a| a.index);
        assert_eq!(arrivals.len(), 5);
        for a in &arrivals {
            assert!((a.due_s - a.index as f64 * 0.005).abs() < 1e-9);
            assert!(a.sent_s >= a.due_s);
            assert!(a.latency_ms() >= a.lag_ms() + 10.0 - 1e-6);
        }
        // job 1 fell due at 5 ms but could not be sent before 40 ms
        assert!(arrivals[1].lag_ms() >= 35.0 - 1e-6);
        assert!(arrivals[1].latency_ms() >= 45.0 - 1e-6);
        // the last job was due at 20 ms: its latency still counts from there
        assert!(arrivals[4].latency_ms() >= 30.0 - 1e-6);
        assert!(total.as_secs_f64() >= 0.050);
    }

    #[test]
    fn an_idle_generator_sends_on_time_and_every_job_arrives() {
        let (arrivals, _) = run(20, Duration::from_millis(2), |i| i, |i| i * 2, |_, r| r);
        assert_eq!(arrivals.len(), 20);
        let mut seen: Vec<usize> = arrivals.iter().map(|a| a.result / 2).collect();
        seen.sort();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        for a in &arrivals {
            assert_eq!(a.result, a.index * 2);
            assert!(a.sent_s >= a.due_s);
            assert!(a.done_s >= a.sent_s);
        }
    }
}
