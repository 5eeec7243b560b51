//! # petal-shard — the evaluation-farm worker process
//!
//! The worker half of the farm's process-sharding front-end
//! ([`petal_farm::shard`]): a tiny loop that reads
//! [`petal_farm::wire`] messages from stdin, evaluates jobs as
//! [`petal_farm::evaluate_job`] does — the *same* trial the in-process
//! farm runs on its threads — and writes raw outcomes to stdout.
//!
//! The worker is deliberately stateless with respect to the tuning run:
//! it never sees the warm-kernel or IR-cache pricing sets (those fold over
//! the parent's submission-order merge), and what it does keep between
//! jobs — each input size's benchmark with its memoised inputs and
//! reference answer — is a pure function of the benchmark's spec, so any
//! job assignment produces bit-identical tuning results. One worker serves one
//! `(benchmark, machine)` session, established by the `INIT` handshake;
//! the parent respawns workers when the session changes.

#![warn(missing_docs)]

pub mod remote;

pub use remote::{serve_remote, RemoteOptions};

use petal_farm::session::{serve_jobs, Framed};
use std::fmt;
use std::io::{BufRead, BufReader, Write};

/// A fatal worker error: protocol violation, unknown benchmark spec, or a
/// broken pipe to the parent.
#[derive(Debug)]
pub struct ServeError {
    /// Human-readable cause, printed to stderr by the binary.
    pub message: String,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

pub(crate) fn err(message: impl Into<String>) -> ServeError {
    ServeError { message: message.into() }
}

/// Serve one shard session over a message stream: `INIT` → `READY`, then
/// `JOB` → `RESULT` until `DONE` or EOF — the shared job loop
/// ([`petal_farm::session::serve_jobs`]) with nothing around it.
///
/// This is the whole worker; `main` merely binds it to stdin/stdout. It
/// is generic over the streams so tests can drive a session through
/// in-memory buffers. Answers to every `JOB` already read go out in one
/// write (see [`petal_farm::session`]'s flush rule).
///
/// # Errors
/// On any protocol violation (bad handshake, malformed record, unknown
/// benchmark spec) or I/O failure. The parent treats a dead worker as a
/// lost link, so erring out loudly is correct.
pub fn serve(input: impl BufRead, output: impl Write) -> Result<(), ServeError> {
    // `DONE`, or EOF without it (the parent died or closed early): exit
    // quietly either way.
    // Its own buffer, so the loop can see which records are in hand.
    serve_jobs(&mut Framed::new(BufReader::new(input), output), |_, _| {})
        .map(|_ended| ())
        .map_err(|e| err(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::blackscholes::BlackScholes;
    use petal_apps::Benchmark;
    use petal_farm::wire::{Message, WIRE_VERSION};
    use petal_farm::{job_seed, EvalJob};
    use petal_gpu::profile::MachineProfile;

    /// Drive a whole session through in-memory buffers and check the
    /// worker's answers equal direct `evaluate_job` calls.
    #[test]
    fn serve_answers_jobs_like_the_in_process_farm() {
        let bench = BlackScholes::new(2_000);
        let machine = MachineProfile::laptop();
        let config = bench.program(&machine).default_config(&machine);
        let jobs: Vec<EvalJob> = (0..3)
            .map(|i| EvalJob {
                config: config.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(5, 0, i),
            })
            .collect();

        let mut session = String::new();
        session.push_str(
            &Message::Init {
                version: WIRE_VERSION,
                bench_spec: bench.spec(),
                machine: Box::new(machine.clone()),
            }
            .encode(),
        );
        session.push('\n');
        for (i, job) in jobs.iter().enumerate() {
            session.push_str(&Message::Job { index: i as u64, job: job.clone() }.encode());
            session.push('\n');
        }
        session.push_str(&Message::Done.encode());
        session.push('\n');

        let mut out = Vec::new();
        serve(session.as_bytes(), &mut out).expect("session succeeds");

        let replies: Vec<Message> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| Message::decode(l).expect("decodes"))
            .collect();
        assert_eq!(replies[0], Message::Ready { version: WIRE_VERSION });
        assert_eq!(replies.len(), 1 + jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let expected = petal_farm::evaluate_job(&bench, &machine, job);
            assert_eq!(
                replies[1 + i],
                Message::Result { index: i as u64, outcome: expected },
                "job {i}"
            );
        }
    }

    /// The reading end of a pipe the parent wrote twice: the `INIT`, and
    /// — once `READY` came back — a generation of jobs and `DONE`.
    struct Pipe(std::collections::VecDeque<String>);

    impl std::io::Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(chunk) = self.0.pop_front() else { return Ok(0) };
            buf[..chunk.len()].copy_from_slice(chunk.as_bytes());
            Ok(chunk.len())
        }
    }

    /// Every `write` call, whole.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).expect("utf8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_generation_read_together_is_answered_in_one_write() {
        let bench = BlackScholes::new(256);
        let machine = MachineProfile::laptop();
        let config = bench.program(&machine).default_config(&machine);
        let init = Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench.spec(),
            machine: Box::new(machine),
        };
        let mut generation = String::new();
        // At a size the benchmark refuses a job is answered in microseconds,
        // far below the 1 ms after which `serve_jobs` writes an answer at
        // once. A real trial here takes a sizeable share of that in a debug
        // build, and on a loaded host sometimes all of it.
        for index in 0..5 {
            let job = EvalJob { config: config.clone(), size: 1, engine_seed: index };
            generation.push_str(&format!("{}\n", Message::Job { index, job }.encode()));
        }
        generation.push_str("DONE\n");
        let pipe = Pipe([format!("{}\n", init.encode()), generation].into());
        let mut writes = Writes::default();
        serve(std::io::BufReader::new(pipe), &mut writes).expect("session succeeds");
        let tags = |write: &String| -> Vec<String> {
            write.lines().map(|l| l.split(' ').next().expect("a tag").to_owned()).collect()
        };
        let tags: Vec<Vec<String>> = writes.0.iter().map(tags).collect();
        assert_eq!(tags, [vec!["READY"], vec!["RESULT"; 5]], "READY, then the five RESULTs");
    }

    /// A `JOB` whole but for its `\n` when the pipe closes is torn, not
    /// a job: it is not answered, and the session ends in an error.
    #[test]
    fn a_job_torn_by_eof_is_not_answered() {
        let machine = MachineProfile::laptop();
        let bench = BlackScholes::new(256);
        let config = bench.program(&machine).default_config(&machine);
        let init = Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench.spec(),
            machine: Box::new(machine),
        };
        let job = EvalJob { config, size: 1, engine_seed: 0 };
        let session = format!("{}\n{}", init.encode(), Message::Job { index: 0, job }.encode());
        let mut out = Vec::new();
        let e = serve(session.as_bytes(), &mut out).expect_err("the last JOB is torn");
        assert!(e.message.contains("torn"), "{e}");
        let out = String::from_utf8(out).expect("utf8");
        assert_eq!(out, format!("{}\n", Message::Ready { version: WIRE_VERSION }.encode()));
    }

    #[test]
    fn bad_handshakes_are_fatal() {
        let mut out = Vec::new();
        let e = serve("DONE\n".as_bytes(), &mut out).expect_err("DONE before INIT");
        assert!(e.message.contains("expected INIT"), "{e}");

        // One wire version: a newer parent and an older one are both
        // refused, and the refusal says so.
        for version in [WIRE_VERSION + 1, WIRE_VERSION - 1] {
            let skewed = Message::Init {
                version,
                bench_spec: "sort n=64".to_owned(),
                machine: Box::new(MachineProfile::desktop()),
            };
            let e = serve(format!("{}\n", skewed.encode()).as_bytes(), &mut Vec::new())
                .expect_err("version skew");
            assert!(e.message.contains(&format!("wire version {version}")), "{e}");
        }

        // A future INIT layout this worker cannot decode must still
        // produce the version-skew diagnostic, not a framing error:
        // version is field 0 and is checked before full decode.
        let future = WIRE_VERSION + 1;
        let e = serve(format!("INIT 1:{future} 7:future!\n").as_bytes(), &mut Vec::new())
            .expect_err("skew with unknown layout");
        assert!(e.message.contains(&format!("wire version {future}")), "{e}");

        let bad_spec = Message::Init {
            version: WIRE_VERSION,
            bench_spec: "warp10 n=64".to_owned(),
            machine: Box::new(MachineProfile::desktop()),
        };
        let e = serve(format!("{}\n", bad_spec.encode()).as_bytes(), &mut Vec::new())
            .expect_err("unknown spec");
        assert!(e.message.contains("bad benchmark spec"), "{e}");
    }
}
