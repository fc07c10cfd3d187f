//! The worker process: a TCP accept loop serving framed protocol requests.
//!
//! A worker is deliberately dumb.  It holds no simulation state, no cost
//! model, no clock — only what the coordinator provisioned it with (raw
//! record datasets and/or O(√n) section summaries) and the task registry.
//! Every frame it receives is a pure-compute request; every frame it sends is
//! the deterministic result.  All scheduling, charging and failure
//! arbitration stay with the coordinator, which is what keeps remote reports
//! bit-identical to in-process ones.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};

use crate::frame::{read_frame, write_frame};
use crate::messages::{Message, WIRE_VERSION};
use crate::registry::{StoredSections, WireTask};

/// Everything provisioned on one connection.
#[derive(Debug, Default)]
pub struct Store {
    /// Raw record datasets: path → (offset → line).  `Provision` appends.
    records: HashMap<String, HashMap<u64, String>>,
    /// Section summaries: path → (version, rebuilt summary).
    /// `ProvisionSections` replaces — a summary is one value, not a stream.
    sections: HashMap<String, (u64, StoredSections)>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the reply for one request frame.  Pure: no I/O, so it is unit
/// testable without sockets.
pub fn handle_message(store: &mut Store, msg: Message) -> Option<Message> {
    match msg {
        Message::Hello { version } => {
            if version == WIRE_VERSION {
                Some(Message::HelloAck {
                    version: WIRE_VERSION,
                })
            } else {
                Some(Message::Error {
                    message: format!(
                        "wire version mismatch: coordinator speaks {version}, worker speaks {WIRE_VERSION}"
                    ),
                })
            }
        }
        Message::Provision { path, records } => {
            let dataset = store.records.entry(path).or_default();
            for (offset, line) in records {
                dataset.insert(offset, line);
            }
            Some(Message::ProvisionAck {
                records: dataset.len() as u64,
            })
        }
        Message::ProvisionSections {
            path,
            version,
            summary,
        } => match StoredSections::from_summary(&summary) {
            Ok(stored) => {
                let sections = stored.num_sections() as u64;
                store.sections.insert(path, (version, stored));
                Some(Message::ProvisionAck { records: sections })
            }
            Err(message) => Some(Message::Error {
                message: format!("bad section summary for {path:?}: {message}"),
            }),
        },
        Message::MapTask {
            name,
            params,
            path,
            offsets,
            num_shards,
        } => {
            let spec = earl_mapreduce::TaskSpec { name, params };
            let Some(task) = WireTask::from_spec(&spec) else {
                return Some(Message::Error {
                    message: format!("unknown task spec {spec:?}"),
                });
            };
            let Some(dataset) = store.records.get(&path) else {
                return Some(Message::Error {
                    message: format!("dataset {path:?} was never provisioned"),
                });
            };
            let mut records = Vec::with_capacity(offsets.len());
            for offset in &offsets {
                match dataset.get(offset) {
                    Some(line) => records.push((*offset, line.as_str())),
                    None => {
                        return Some(Message::Error {
                            message: format!("no record at offset {offset} in {path:?}"),
                        })
                    }
                }
            }
            let shards = task.run_map(&records, num_shards as usize);
            Some(Message::MapOk {
                shards,
                records: offsets.len() as u64,
            })
        }
        Message::ReduceTask {
            name,
            params,
            groups,
        } => {
            let spec = earl_mapreduce::TaskSpec { name, params };
            let Some(task) = WireTask::from_spec(&spec) else {
                return Some(Message::Error {
                    message: format!("unknown task spec {spec:?}"),
                });
            };
            Some(Message::ReduceOk {
                outputs: task.run_reduce(&groups),
            })
        }
        Message::SectionTask {
            name,
            params,
            path,
            seed,
            b_start,
            b_count,
            size,
        } => {
            let spec = earl_mapreduce::TaskSpec { name, params };
            let Some(task) = WireTask::from_spec(&spec) else {
                return Some(Message::Error {
                    message: format!("unknown task spec {spec:?}"),
                });
            };
            let Some((_version, sections)) = store.sections.get(&path) else {
                return Some(Message::Error {
                    message: format!("sections {path:?} were never provisioned"),
                });
            };
            match task.run_sections(sections, seed, b_start, b_count, size) {
                Ok(replicates) => Some(Message::SectionOk { replicates }),
                Err(message) => Some(Message::Error { message }),
            }
        }
        Message::Ping => Some(Message::Pong),
        Message::Shutdown => None,
        // Worker-to-coordinator messages arriving at a worker are protocol
        // violations; answer with an error but keep the connection alive.
        other => Some(Message::Error {
            message: format!("unexpected message at worker: {other:?}"),
        }),
    }
}

/// Serves one coordinator connection until `Shutdown`, EOF, or an
/// undecodable frame.
///
/// A frame that fails to decode means the byte stream itself is corrupt, so
/// nothing after it — not even frame boundaries — can be trusted; the worker
/// closes the connection instead of answering.  The coordinator observes the
/// hang-up as an EOF on its reply read and runs its ordinary
/// revive/redispatch path, exactly as for a worker death.  (Contrast with
/// [`Message::Error`] replies, which report *semantic* problems over a still
/// healthy stream.)  An unencodable reply is likewise unrecoverable — it
/// cannot happen for well-formed requests, whose replies are bounded by their
/// inputs — and closes the connection.
pub fn serve_connection(mut stream: TcpStream) -> io::Result<()> {
    let mut store = Store::new();
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(payload) => payload,
            // Coordinator hung up (or died): the connection is done.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let Ok(msg) = Message::decode(&payload) else {
            // Corrupt stream: close it (see above).
            return Ok(());
        };
        match handle_message(&mut store, msg) {
            Some(reply) => {
                let Ok(bytes) = reply.encode() else {
                    return Ok(());
                };
                write_frame(&mut stream, &bytes)?
            }
            None => return Ok(()),
        }
    }
}

/// Runs the worker accept loop forever, serving each coordinator connection on
/// its own thread.
pub fn run_worker(listener: TcpListener) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        // A reply frame is two writes (length prefix, payload).  With Nagle on,
        // the payload waits for the coordinator's delayed ACK of the prefix —
        // tens of milliseconds per reply on loopback.  The dialer disables it
        // on its end too (`TcpDialer`); failing to here only costs latency.
        let _ = stream.set_nodelay(true);
        std::thread::spawn(move || {
            // A dropped connection is the coordinator's business, not ours.
            let _ = serve_connection(stream);
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_mapreduce::SectionSummary;

    #[test]
    fn handshake_checks_the_wire_version() {
        let mut store = Store::new();
        assert_eq!(
            handle_message(
                &mut store,
                Message::Hello {
                    version: WIRE_VERSION
                }
            ),
            Some(Message::HelloAck {
                version: WIRE_VERSION
            })
        );
        assert!(matches!(
            handle_message(&mut store, Message::Hello { version: 999 }),
            Some(Message::Error { .. })
        ));
    }

    #[test]
    fn provision_then_map_then_reduce() {
        let mut store = Store::new();
        let ack = handle_message(
            &mut store,
            Message::Provision {
                path: "/data".into(),
                records: vec![(0, "1.0".into()), (4, "3.0".into())],
            },
        );
        assert_eq!(ack, Some(Message::ProvisionAck { records: 2 }));

        let reply = handle_message(
            &mut store,
            Message::MapTask {
                name: "mean".into(),
                params: vec![],
                path: "/data".into(),
                offsets: vec![0, 4],
                num_shards: 1,
            },
        );
        let Some(Message::MapOk { shards, records }) = reply else {
            panic!("expected MapOk, got {reply:?}");
        };
        assert_eq!(records, 2);
        assert_eq!(shards, vec![vec![(0, 1.0), (0, 3.0)]]);

        let reply = handle_message(
            &mut store,
            Message::ReduceTask {
                name: "mean".into(),
                params: vec![],
                groups: vec![(0, vec![1.0, 3.0])],
            },
        );
        assert_eq!(reply, Some(Message::ReduceOk { outputs: vec![2.0] }));
    }

    #[test]
    fn unknown_tasks_missing_datasets_and_bad_offsets_error() {
        let mut store = Store::new();
        assert!(matches!(
            handle_message(
                &mut store,
                Message::MapTask {
                    name: "nope".into(),
                    params: vec![],
                    path: "/data".into(),
                    offsets: vec![],
                    num_shards: 1,
                }
            ),
            Some(Message::Error { .. })
        ));
        assert!(matches!(
            handle_message(
                &mut store,
                Message::MapTask {
                    name: "mean".into(),
                    params: vec![],
                    path: "/missing".into(),
                    offsets: vec![0],
                    num_shards: 1,
                }
            ),
            Some(Message::Error { .. })
        ));
        handle_message(
            &mut store,
            Message::Provision {
                path: "/data".into(),
                records: vec![(0, "1.0".into())],
            },
        );
        assert!(matches!(
            handle_message(
                &mut store,
                Message::MapTask {
                    name: "mean".into(),
                    params: vec![],
                    path: "/data".into(),
                    offsets: vec![99],
                    num_shards: 1,
                }
            ),
            Some(Message::Error { .. })
        ));
    }

    #[test]
    fn section_provision_replaces_and_section_tasks_evaluate() {
        let mut store = Store::new();
        let summary = SectionSummary::Linear {
            total_items: 4,
            sections: vec![(2, 1.0, 0.5), (2, 3.0, 0.5)],
        };
        let ack = handle_message(
            &mut store,
            Message::ProvisionSections {
                path: "/data#sections".into(),
                version: 1,
                summary: summary.clone(),
            },
        );
        assert_eq!(ack, Some(Message::ProvisionAck { records: 2 }));

        // Re-provisioning replaces the summary wholesale (unlike `Provision`,
        // which appends) — the worker holds exactly one value per path.
        let replacement = SectionSummary::Linear {
            total_items: 9,
            sections: vec![(9, 2.0, 1.0)],
        };
        let ack = handle_message(
            &mut store,
            Message::ProvisionSections {
                path: "/data#sections".into(),
                version: 2,
                summary: replacement,
            },
        );
        assert_eq!(ack, Some(Message::ProvisionAck { records: 1 }));
        assert_eq!(store.sections["/data#sections"].0, 2);

        let reply = handle_message(
            &mut store,
            Message::SectionTask {
                name: "mean".into(),
                params: vec![],
                path: "/data#sections".into(),
                seed: 7,
                b_start: 0,
                b_count: 8,
                size: 9,
            },
        );
        let Some(Message::SectionOk { replicates }) = reply else {
            panic!("expected SectionOk, got {reply:?}");
        };
        assert_eq!(replicates.len(), 8);

        // Missing provisions and malformed summaries answer Error.
        assert!(matches!(
            handle_message(
                &mut store,
                Message::SectionTask {
                    name: "mean".into(),
                    params: vec![],
                    path: "/never".into(),
                    seed: 7,
                    b_start: 0,
                    b_count: 1,
                    size: 9,
                }
            ),
            Some(Message::Error { .. })
        ));
        assert!(matches!(
            handle_message(
                &mut store,
                Message::ProvisionSections {
                    path: "/bad".into(),
                    version: 1,
                    summary: SectionSummary::Linear {
                        total_items: 10,
                        sections: vec![(3, 0.0, 1.0)],
                    },
                }
            ),
            Some(Message::Error { .. })
        ));
    }

    #[test]
    fn out_of_range_quantile_specs_are_refused_and_the_worker_keeps_serving() {
        let mut store = Store::new();
        handle_message(
            &mut store,
            Message::Provision {
                path: "/data".into(),
                records: vec![(0, "1.0".into()), (4, "3.0".into())],
            },
        );
        handle_message(
            &mut store,
            Message::ProvisionSections {
                path: "/data#sections".into(),
                version: 1,
                summary: SectionSummary::Linear {
                    total_items: 2,
                    sections: vec![(2, 2.0, 1.0)],
                },
            },
        );
        let map_task = |name: &str, params: Vec<f64>| Message::MapTask {
            name: name.into(),
            params,
            path: "/data".into(),
            offsets: vec![0, 4],
            num_shards: 1,
        };
        let section_task = |name: &str, params: Vec<f64>| Message::SectionTask {
            name: name.into(),
            params,
            path: "/data#sections".into(),
            seed: 7,
            b_start: 0,
            b_count: 4,
            size: 2,
        };
        for level in [f64::NAN, 7.0, -0.1] {
            for message in [
                map_task("quantile", vec![level]),
                section_task("quantile", vec![level]),
            ] {
                let reply = handle_message(&mut store, message);
                let Some(Message::Error { message }) = reply else {
                    panic!("level {level}: expected Error, got {reply:?}");
                };
                assert!(message.contains("unknown task spec"), "{message}");
            }
        }
        // The refusals left the session and the store intact.
        assert!(matches!(
            handle_message(&mut store, map_task("quantile", vec![0.5])),
            Some(Message::MapOk { records: 2, .. })
        ));
        assert!(matches!(
            handle_message(&mut store, section_task("mean", vec![])),
            Some(Message::SectionOk { .. })
        ));
    }

    #[test]
    fn shutdown_ends_the_session_and_ping_answers_pong() {
        let mut store = Store::new();
        assert_eq!(
            handle_message(&mut store, Message::Ping),
            Some(Message::Pong)
        );
        assert_eq!(handle_message(&mut store, Message::Shutdown), None);
    }

    /// Without `TCP_NODELAY` on the accepted stream (see `run_worker`) each
    /// round trip here takes 22–40 ms.
    #[test]
    fn replies_do_not_wait_out_a_delayed_ack() {
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = run_worker(listener);
        });
        let transport = crate::TcpTransport::connect(
            earl_cluster::Cluster::with_nodes(1),
            &[addr],
            Duration::from_secs(10),
        )
        .unwrap();
        let started = Instant::now();
        for _ in 0..100 {
            assert_eq!(transport.ping_all(), 1);
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "100 ping round trips took {elapsed:?}"
        );
        transport.shutdown();
    }
}
