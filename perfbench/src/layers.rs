//! The traced run: per-layer metrics, each measured from outside by
//! timing calls into one crate's `pub` API at the workload's shape
//! (its rows, dimension, executor count and trained model).

use std::net::{TcpListener, TcpStream};
use std::rc::Rc;

use mlstar_collectives::wire::{decode_adaptive, encode_adaptive};
use mlstar_collectives::{
    all_reduce_average, compressed_all_reduce_average, tree_aggregate, CompressionConfig,
    FrameSwitch,
};
use mlstar_core::{with_backend, TrainOutput, WorkerOp};
use mlstar_data::EpochOrder;
use mlstar_glm::{batch_gradient_into, objective_value, sgd_epoch_lazy, GlmModel, Regularizer};
use mlstar_linalg::{average, DenseVector, ScaledVector};
use mlstar_net::{
    channel_pair, decode_msg, encode_msg, Msg, NetTrainOutput, TcpTransport, Transport,
};
use mlstar_serve::{BatchPolicy, ModelArtifact, ScoringEngine};
use mlstar_sim::{Activity, CostModel, GanttRecorder, NodeId, RoundBuilder, SimTime};

use crate::backend::InlineBackend;
use crate::stats::{median, probe_secs, quantile, Stopwatch};
use crate::trace::{self, span};
use crate::workloads::{
    final_objective, same_bits, setup_reps, two_executors, Inputs, Metric, Plan, Tally,
    SERVE_SHARDS,
};

/// Seconds given to each micro-probe.
const PROBE: f64 = 0.15;
/// Rounds of the net-backend probe on the simulated-path workloads.
const NET_PROBE_ROUNDS: u64 = 200;
/// Net-backend probe runs; per-run sums are reported as medians.
const NET_PROBE_RUNS: usize = 3;
/// Ping-pong round trips per transport.
const PING_PONGS: usize = 200;

/// One traced training call: the ops it dispatched and the seconds spent
/// in the glm calls inside them. Only that glm work is counted as op
/// busy time: the untraced path runs the same calls, while the copies and
/// fresh buffers around them exist only because a backend is installed.
struct CallSplit {
    ops: f64,
    busy_s: f64,
}

fn call_splits(spans: &[trace::Span]) -> Vec<CallSplit> {
    let op_of =
        |call: usize, s: &trace::Span| s.parent == Some(call) && s.name.starts_with("core.exec.");
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "train.traced")
        .map(|(call, _)| CallSplit {
            ops: spans.iter().filter(|s| op_of(call, s)).count() as f64,
            busy_s: spans
                .iter()
                .filter(|s| s.name.starts_with("glm."))
                .filter(|s| s.parent.is_some_and(|p| op_of(call, &spans[p])))
                .map(trace::Span::secs)
                .sum(),
        })
        .collect()
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    plan: &Plan,
    seconds: f64,
    tally: &mut Tally,
    details: &mut Vec<String>,
) -> Result<(Vec<Metric>, Vec<trace::Span>), String> {
    trace::enable();
    let (inputs, _, generate) = setup_reps(plan)?;

    // Core: alternate untraced calls with calls routed through the
    // inline backend; every traced call must match the untraced weights.
    let budget_s = seconds / 2.0;
    let untraced_out = plan.train_sim(&inputs.ds);
    let reference = untraced_out.model.weights().as_slice().to_vec();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Stopwatch::start();
    let mut first = true;
    while untraced.len() < 2 || start.secs() < budget_s {
        let t = Stopwatch::start();
        let out = plan.train_sim(&inputs.ds);
        let plain_s = t.secs();
        let t = Stopwatch::start();
        let out_traced = span("train.traced", || {
            with_backend(
                Box::new(InlineBackend::new(Rc::clone(&inputs.ds), &plan.cfg)),
                || plan.train_sim(&inputs.ds),
            )
        });
        let traced_s = t.secs();
        for (what, o) in [("untraced", &out), ("traced", &out_traced)] {
            tally.check(same_bits(o.model.weights().as_slice(), &reference), || {
                format!("{what} sim run: weights differ from the untraced run")
            });
        }
        // The first pair is the warm-up.
        if !first {
            untraced.push(plain_s);
            traced.push(traced_s);
        }
        first = false;
    }
    let overhead_s = median(&traced) - median(&untraced);
    details.push(format!(
        "sim call: untraced median {:.6} s, traced median {:.6} s (n = {}), tracing overhead {overhead_s:.6} s",
        median(&untraced),
        median(&traced),
        untraced.len()
    ));

    let out = untraced_out;
    let model = &out.model;
    let mut m: Vec<Metric> = Vec::new();
    m.extend(linalg_probes(plan, &inputs, model));
    m.extend(glm_probes(plan, &inputs, model, &out));
    m.push(("data.generate_s", generate.median(), "s"));
    m.push(("data.epoch_order_ms", epoch_order_ms(plan, &inputs), "ms"));
    m.extend(cluster_metrics(&out));
    m.extend(collectives_probes(plan, &inputs, model, &out));
    m.extend(net_probes(plan, &inputs, model, tally)?);
    m.extend(serve_probes(model, &inputs, tally));
    m.push((
        "codec.artifact_roundtrip_ms",
        artifact_ms(plan, &inputs, &out, tally),
        "ms",
    ));
    m.push(("trace.overhead_s", overhead_s, "s"));
    let spans = trace::take();
    m.push(("trace.spans", spans.len() as f64, "count"));
    // The first traced call was the warm-up.
    let splits = call_splits(&spans);
    let splits = &splits[1.min(splits.len())..];
    let med = |f: fn(&CallSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let busy_s = med(|c| c.busy_s);
    m.push(("core.exec.ops", med(|c| c.ops), "count"));
    m.push(("core.exec.busy_s", busy_s, "s"));
    // Everything the untraced call does outside the ops' glm work.
    m.push(("core.orchestrator_s", median(&untraced) - busy_s, "s"));
    Ok((m, spans))
}

fn linalg_probes(plan: &Plan, inputs: &Inputs, model: &GlmModel) -> Vec<Metric> {
    let rows = inputs.ds.rows();
    let nnz = inputs.ds.total_nnz().max(1) as f64;
    let w = model.weights();
    let dot = span("linalg.dot_dense", || {
        probe_secs(PROBE, || rows.iter().map(|r| r.dot_dense(w)).sum::<f64>())
    });
    let mut s = ScaledVector::zeros(w.dim());
    let axpy = span("linalg.scaled_dot_axpy", || {
        probe_secs(PROBE, || {
            for r in rows {
                let d = s.dot_sparse(r);
                s.axpy_sparse(1e-3 - 1e-6 * d, r);
            }
            s.scale_factor()
        })
    });
    let k = plan.cluster.num_executors();
    let locals: Vec<DenseVector> = (0..k).map(|_| w.clone()).collect();
    let avg = span("linalg.average", || probe_secs(PROBE, || average(&locals)));
    vec![
        ("linalg.sparse_dot_ns_per_nnz", dot * 1e9 / nnz, "ns"),
        ("linalg.scaled_axpy_ns_per_nnz", axpy * 1e9 / nnz, "ns"),
        (
            "linalg.dense_average_ns_per_elem",
            avg * 1e9 / (k * w.dim()).max(1) as f64,
            "ns",
        ),
    ]
}

fn glm_probes(plan: &Plan, inputs: &Inputs, model: &GlmModel, out: &TrainOutput) -> Vec<Metric> {
    let (rows, labels) = (inputs.ds.rows(), inputs.ds.labels());
    let part = &inputs.parts[0];
    let per_row = 1e9 / part.len().max(1) as f64;
    let w = model.weights();
    let cfg = &plan.cfg;
    let mut s = ScaledVector::zeros(w.dim());
    let mut sgd = |name: &'static str, reg: Regularizer| {
        span(name, || {
            probe_secs(PROBE, || {
                s.assign_dense(w);
                sgd_epoch_lazy(cfg.loss, reg, &mut s, rows, labels, part, cfg.lr, 0)
            })
        })
    };
    let l2 = sgd("glm.sgd_epoch_lazy.l2", Regularizer::L2 { lambda: 0.1 });
    let l1 = sgd("glm.sgd_epoch_lazy.l1", Regularizer::L1 { lambda: 0.001 });
    let mut g = DenseVector::zeros(w.dim());
    let grad = span("glm.batch_gradient_into", || {
        probe_secs(PROBE, || {
            batch_gradient_into(cfg.loss, w, rows, labels, part, &mut g)
        })
    });
    let objective = span("glm.objective_value", || {
        probe_secs(PROBE, || {
            objective_value(cfg.loss, cfg.reg, w, rows, labels)
        })
    });
    vec![
        ("glm.sgd_pass_l2_ns_per_row", l2 * per_row, "ns"),
        ("glm.sgd_pass_l1_ns_per_row", l1 * per_row, "ns"),
        ("glm.batch_grad_ns_per_row", grad * per_row, "ns"),
        ("glm.objective_ms", objective * 1e3, "ms"),
        (
            "glm.objective_calls",
            out.trace.points.len() as f64,
            "count",
        ),
    ]
}

fn epoch_order_ms(plan: &Plan, inputs: &Inputs) -> f64 {
    let mut order = EpochOrder::new(plan.cfg.seed);
    let pool = &inputs.parts[0];
    span("data.next_order", || {
        probe_secs(PROBE, || order.next_order(pool))
    }) * 1e3
}

fn cluster_metrics(out: &TrainOutput) -> Vec<Metric> {
    let total: f64 = out
        .round_stats
        .iter()
        .map(|r| r.elapsed_s)
        .sum::<f64>()
        .max(1e-300);
    let share =
        |f: fn(&mlstar_core::RoundStats) -> f64| out.round_stats.iter().map(f).sum::<f64>() / total;
    vec![
        ("cluster.compute_share", share(|r| r.compute_s), "ratio"),
        ("cluster.comm_share", share(|r| r.comm_s), "ratio"),
        ("cluster.idle_share", share(|r| r.idle_s), "ratio"),
        (
            "cluster.gantt_spans",
            out.gantt.spans().len() as f64,
            "count",
        ),
    ]
}

/// `k` local models that differ from `w` on the features of each
/// executor's first rows, as after a local pass.
fn local_models(inputs: &Inputs, w: &DenseVector) -> Vec<DenseVector> {
    inputs
        .parts
        .iter()
        .enumerate()
        .map(|(r, part)| {
            let mut v = w.clone();
            for &i in part.iter().take(64) {
                v.axpy_sparse(1e-3 * (r + 1) as f64, &inputs.ds.rows()[i]);
            }
            v
        })
        .collect()
}

fn collectives_probes(
    plan: &Plan,
    inputs: &Inputs,
    model: &GlmModel,
    out: &TrainOutput,
) -> Vec<Metric> {
    let cost = CostModel::new(plan.cluster.clone());
    let k = plan.cluster.num_executors();
    let exec: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
    let mut all = vec![NodeId::Driver];
    all.extend(exec.iter().copied());
    let locals = local_models(inputs, model.weights());
    let round = |nodes: &[NodeId], f: &mut dyn FnMut(&mut RoundBuilder<'_>) -> usize| {
        let mut g = GanttRecorder::new();
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, nodes);
        f(&mut rb)
    };
    let mut dense_bytes = 0;
    let all_reduce = span("collectives.all_reduce_average", || {
        probe_secs(PROBE, || {
            round(&exec, &mut |rb| {
                dense_bytes = all_reduce_average(rb, &cost, &locals).1;
                dense_bytes
            })
        })
    });
    let fanin = plan.cfg.tree_fanin;
    let tree = span("collectives.tree_aggregate", || {
        probe_secs(PROBE, || {
            round(&all, &mut |rb| {
                tree_aggregate(rb, &cost, &locals, fanin, Activity::SendModel).1
            })
        })
    });
    let adaptive = CompressionConfig {
        switch: FrameSwitch::Adaptive,
        ..CompressionConfig::default()
    };
    // The residuals live across calls, as the round engine keeps them.
    let mut residuals = Vec::new();
    let compressed = span("collectives.compressed_all_reduce_average", || {
        probe_secs(PROBE, || {
            round(&exec, &mut |rb| {
                compressed_all_reduce_average(rb, &cost, &locals, &adaptive, &mut residuals).1
            })
        })
    });
    let switch = plan.cfg.compression.switch;
    let frame = encode_adaptive(model.weights(), switch);
    let encode = span("collectives.wire.encode", || {
        probe_secs(PROBE, || encode_adaptive(model.weights(), switch))
    });
    let decode = span("collectives.wire.decode", || {
        probe_secs(PROBE, || decode_adaptive(&frame))
    });
    let mb = frame.len() as f64 / 1e6;
    let rounds = out.round_stats.len().max(1) as f64;
    let bytes: u64 = out.round_stats.iter().map(|r| r.bytes.total()).sum();
    // Dense-equivalent bytes: each round's AllReduce traffic replaced by
    // what the dense AllReduce moves at this k and dimension.
    let dense_equivalent: u64 = out
        .round_stats
        .iter()
        .map(|r| {
            let ar = r.bytes.reduce_scatter + r.bytes.all_gather;
            let dense = if ar > 0 { dense_bytes as u64 } else { 0 };
            r.bytes.total() - ar + dense
        })
        .sum();
    vec![
        ("collectives.all_reduce_ms", all_reduce * 1e3, "ms"),
        ("collectives.tree_aggregate_ms", tree * 1e3, "ms"),
        (
            "collectives.compressed_all_reduce_ms",
            compressed * 1e3,
            "ms",
        ),
        ("collectives.wire_encode_mb_per_s", mb / encode, "MB/s"),
        ("collectives.wire_decode_mb_per_s", mb / decode, "MB/s"),
        ("collectives.bytes_per_round", bytes as f64 / rounds, "B"),
        (
            "collectives.byte_reduction",
            dense_equivalent as f64 / bytes.max(1) as f64,
            "x",
        ),
    ]
}

/// Per-run sums of one net-backend training run.
struct NetRun {
    wall_p50_ms: f64,
    wall_p95_ms: f64,
    compute_s: f64,
    overhead_s: f64,
    barrier_idle_s: f64,
    outside_batches_s: f64,
    bytes_per_round: f64,
}

fn net_run_sums(run: &NetTrainOutput) -> NetRun {
    let walls: Vec<f64> = run.batches.iter().map(|b| b.wall_s).collect();
    let walls = if walls.is_empty() { vec![0.0] } else { walls };
    let mut compute_s = 0.0;
    let mut overhead_s = 0.0;
    let mut idle_s = 0.0;
    let mut bytes = 0u64;
    for b in &run.batches {
        // The slowest worker sets the batch's time.
        if let Some(slow) = b
            .workers
            .iter()
            .max_by(|x, y| x.turnaround_s.total_cmp(&y.turnaround_s))
        {
            compute_s += slow.compute_s;
            overhead_s += slow.comm_s();
        }
        let n = b.workers.len().max(1) as f64;
        idle_s += b.workers.iter().map(|w| b.idle_s(w)).sum::<f64>() / n;
        bytes += b
            .workers
            .iter()
            .map(|w| w.bytes_in + w.bytes_out)
            .sum::<u64>();
    }
    NetRun {
        wall_p50_ms: quantile(&walls, 0.5) * 1e3,
        wall_p95_ms: quantile(&walls, 0.95) * 1e3,
        compute_s,
        overhead_s,
        barrier_idle_s: idle_s,
        outside_batches_s: run.wall_s - walls.iter().sum::<f64>(),
        bytes_per_round: bytes as f64 / run.batches.len().max(1) as f64,
    }
}

/// Median seconds per round trip of a model-sized frame over `a`, with
/// the peer echoing on another thread.
fn ping_pong(a: &mut dyn Transport, frame: &[u8]) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(PING_PONGS);
    for i in 0..=PING_PONGS {
        let t = Stopwatch::start();
        a.send(frame).map_err(|e| format!("ping send: {e}"))?;
        let back = a.recv().map_err(|e| format!("ping recv: {e}"))?;
        if i > 0 {
            samples.push(t.secs());
        }
        if back.len() != frame.len() {
            return Err("echoed frame changed length".to_owned());
        }
    }
    Ok(median(&samples))
}

fn echo(mut b: impl Transport) {
    while let Ok(f) = b.recv() {
        if b.send(&f).is_err() {
            break;
        }
    }
}

fn channel_rtt(frame: &[u8]) -> Result<f64, String> {
    let (mut a, b) = channel_pair();
    // lint:allow(thread_spawn): benchmark echo peer, joined by the scope; never in the simulation
    std::thread::scope(|s| {
        s.spawn(move || echo(b));
        let rtt = ping_pong(&mut a, frame);
        drop(a);
        rtt
    })
}

fn tcp_rtt(frame: &[u8]) -> Result<f64, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("tcp bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("tcp local_addr: {e}"))?;
    // lint:allow(thread_spawn): benchmark echo peer, joined by the scope; never in the simulation
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                if let Ok(t) = TcpTransport::new(stream) {
                    echo(t);
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("tcp connect: {e}"));
        let mut a = stream.and_then(|s| TcpTransport::new(s).map_err(|e| e.to_string()))?;
        let rtt = ping_pong(&mut a, frame);
        drop(a);
        rtt
    })
}

fn net_probes(
    plan: &Plan,
    inputs: &Inputs,
    model: &GlmModel,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    // The workload's own call on the net backend when it runs there;
    // otherwise the same trainer on two executors for a capped budget.
    let (cluster, cfg) = if plan.on_net {
        (plan.cluster.clone(), plan.cfg.clone())
    } else {
        let mut cfg = plan.cfg.clone();
        cfg.max_rounds = cfg.max_rounds.min(NET_PROBE_ROUNDS);
        (two_executors(), cfg)
    };
    let mut runs = Vec::new();
    for _ in 0..NET_PROBE_RUNS {
        let res = span("net.train_net", || {
            plan.train_on_net(&inputs.ds, &cluster, &cfg)
        });
        if let Some(run) = tally.call(res) {
            tally.check(final_objective(&run.output).is_finite(), || {
                "net probe: final objective is not finite".to_owned()
            });
            runs.push(net_run_sums(&run));
        }
    }
    if runs.is_empty() {
        return Err("every net-backend probe run failed".to_owned());
    }
    let med = |f: fn(&NetRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());

    let switch = plan.cfg.compression.switch;
    let frame = encode_msg(
        &Msg::Ops {
            batch: 0,
            ops: vec![WorkerOp::SgdPass {
                w: model.weights().clone(),
                order: Vec::new(),
                t0: 0,
            }],
        },
        switch,
    );
    let channel = span("net.channel_ping_pong", || channel_rtt(&frame));
    let channel = tally.call(channel).unwrap_or(f64::NAN);
    let tcp = span("net.tcp_ping_pong", || tcp_rtt(&frame));
    let tcp = tally.call(tcp).unwrap_or(f64::NAN);
    let msg = Msg::Ops {
        batch: 0,
        ops: vec![WorkerOp::SgdPass {
            w: model.weights().clone(),
            order: inputs.parts[0].iter().map(|&i| i as u32).collect(),
            t0: 0,
        }],
    };
    let encode = span("net.encode_msg", || {
        probe_secs(PROBE, || encode_msg(&msg, switch))
    });
    let bytes = encode_msg(&msg, switch);
    tally.check(decode_msg(&bytes).ok().as_ref() == Some(&msg), || {
        "net message did not round-trip".to_owned()
    });
    let decode = span("net.decode_msg", || {
        probe_secs(PROBE, || decode_msg(&bytes))
    });
    Ok(vec![
        ("net.batch_wall_p50_ms", med(|r| r.wall_p50_ms), "ms"),
        ("net.batch_wall_p95_ms", med(|r| r.wall_p95_ms), "ms"),
        ("net.compute_s", med(|r| r.compute_s), "s"),
        ("net.overhead_s", med(|r| r.overhead_s), "s"),
        ("net.barrier_idle_s", med(|r| r.barrier_idle_s), "s"),
        ("net.outside_batches_s", med(|r| r.outside_batches_s), "s"),
        ("net.bytes_per_round", med(|r| r.bytes_per_round), "B"),
        ("net.channel_rtt_us", channel * 1e6, "us"),
        ("net.tcp_rtt_us", tcp * 1e6, "us"),
        ("net.msg_encode_us", encode * 1e6, "us"),
        ("net.msg_decode_us", decode * 1e6, "us"),
    ])
}

fn serve_probes(model: &GlmModel, inputs: &Inputs, tally: &mut Tally) -> Vec<Metric> {
    let requests = &inputs.requests;
    let n = requests.len();
    let mut last = None;
    let mut run_at = |shards: usize, name: &'static str| {
        let engine = ScoringEngine::new(model.clone(), BatchPolicy::default(), shards);
        let mut samples = Vec::new();
        for i in 0..4 {
            let t = Stopwatch::start();
            let res = span(name, || engine.run(requests)).map_err(|e| format!("scoring: {e}"));
            if i > 0 {
                samples.push(t.secs());
            }
            if let Some(run) = tally.call(res) {
                tally.check(run.predictions.len() == n, || {
                    format!("{} predictions for {n} requests", run.predictions.len())
                });
                last = Some(run);
            }
        }
        median(&samples)
    };
    let run_s = run_at(SERVE_SHARDS, "serve.run");
    let shard1_s = run_at(1, "serve.run_1_shard");
    let margin_s = span("serve.margins", || {
        probe_secs(PROBE, || {
            requests.iter().map(|r| model.margin(&r.row)).sum::<f64>()
        })
    });
    let (batches, fill) = last.map_or((0.0, 0.0), |r| {
        (r.telemetry.num_batches() as f64, r.telemetry.mean_fill())
    });
    vec![
        ("serve.run_s", run_s, "s"),
        ("serve.shard1_run_s", shard1_s, "s"),
        ("serve.margin_s", margin_s, "s"),
        ("serve.overhead_share", 1.0 - margin_s / run_s, "ratio"),
        ("serve.batches", batches, "count"),
        ("serve.mean_fill", fill, "ratio"),
    ]
}

fn artifact_ms(plan: &Plan, inputs: &Inputs, out: &TrainOutput, tally: &mut Tally) -> f64 {
    let artifact = ModelArtifact::from_run(plan.system, &plan.cfg, out, &inputs.ds)
        .map_err(|e| format!("artifact: {e}"));
    let Some(artifact) = tally.call(artifact) else {
        return f64::NAN;
    };
    let back = ModelArtifact::decode(&artifact.encode()).map_err(|e| format!("decode: {e}"));
    if let Some(back) = tally.call(back) {
        tally.check(
            same_bits(back.weights().as_slice(), artifact.weights().as_slice()),
            || "artifact round trip changed the weights".to_owned(),
        );
    }
    span("codec.artifact_roundtrip", || {
        probe_secs(PROBE, || ModelArtifact::decode(&artifact.encode()))
    }) * 1e3
}
