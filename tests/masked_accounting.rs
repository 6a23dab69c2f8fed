//! Golden pin of the masked (query-subset) execution path.
//!
//! Every literal below was recorded from the masked engine and must be
//! reproduced exactly by any implementation of it: each `StepStats` field,
//! each per-node `NodeStats`, the bits of each step's simulated seconds,
//! per-column work attribution, a digest of the returned rows, and the
//! exact `ResourceExhausted` error of capacity-starved runs.
//!
//! Coverage: two seeded graphs (an emulated social graph and a directed
//! hash graph) × fused 2-hop and 3-hop plans × five query sets (empty,
//! one vertex, the largest hub, a 5 % sample, every vertex), plus
//! capacity-starved runs.

use std::fmt::Write;

use snaple::core::{
    ExecuteRequest, PathLength, PlanConfig, PrepareRequest, QuerySet, Registry, ScorePlan,
};
use snaple::gas::{
    ClusterSpec, Deployment, Engine, EngineError, GasStep, GatherCtx, PartitionStrategy, RunStats,
    WorkTally,
};
use snaple::graph::gen::datasets;
use snaple::graph::hash::hash2;
use snaple::graph::{CsrGraph, GraphBuilder, VertexId, VertexMask};

fn social() -> CsrGraph {
    datasets::GOWALLA.emulate(0.004, 11)
}

/// A directed graph with skewed out-degrees: 300 vertices, 2,400
/// hash-placed edges whose sources concentrate on low ids.
fn directed() -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(300);
    for i in 0..2_400u64 {
        let u = (hash2(5, i, 1) % 300) * (hash2(5, i, 2) % 300) / 300;
        let v = hash2(5, i, 3) % 300;
        if u != v {
            b.add_edge(u as u32, v as u32);
        }
    }
    b.build()
}

fn graphs() -> [(&'static str, CsrGraph); 2] {
    [("social", social()), ("directed", directed())]
}

fn plan(path: PathLength) -> ScorePlan {
    let config = PlanConfig::default()
        .k(5)
        .klocal(Some(6))
        .thr_gamma(Some(14))
        .seed(3)
        .path_length(path);
    ScorePlan::parse_with(
        &Registry::builtin(),
        "linearSum, counter, jaccard@agg=max",
        config,
    )
    .unwrap()
}

/// The five query sets of the pin, named.
fn query_sets(graph: &CsrGraph) -> Vec<(&'static str, QuerySet)> {
    let n = graph.num_vertices();
    let hub = (0..n as u32)
        .max_by_key(|&u| (graph.out_degree(VertexId::new(u)), std::cmp::Reverse(u)))
        .unwrap();
    vec![
        ("empty", QuerySet::new(std::iter::empty())),
        ("one", QuerySet::from_indices([7])),
        ("hub", QuerySet::from_indices([hub])),
        ("sample", QuerySet::sample(n, n / 20, 13)),
        ("all", QuerySet::from_indices(0..n as u32)),
    ]
}

fn render_steps(out: &mut String, stats: &RunStats) {
    for s in &stats.steps {
        write!(
            out,
            "  {} g={} s={} a={} w={} b={} p={} t={:#x} n=",
            s.name,
            s.gather_calls,
            s.sum_calls,
            s.apply_calls,
            s.work_ops,
            s.broadcast_bytes,
            s.partial_bytes,
            s.simulated_seconds.to_bits(),
        )
        .unwrap();
        for n in &s.per_node {
            write!(out, "[{},{},{}]", n.compute_ops, n.net_bytes, n.memory_peak).unwrap();
        }
        out.push('\n');
    }
}

/// FNV-1a over `(source, target, score bits)` of every non-empty row.
fn digest<'a>(rows: impl Iterator<Item = (VertexId, &'a [(VertexId, f32)])>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (u, row) in rows {
        for &(z, s) in row {
            eat(u.as_u32());
            eat(z.as_u32());
            eat(s.to_bits());
        }
    }
    h
}

fn render_plans() -> String {
    let cluster = ClusterSpec::type_ii(4);
    let mut out = String::new();
    for (gname, graph) in graphs() {
        for (pname, path) in [("2hop", PathLength::Two), ("3hop", PathLength::Three)] {
            let plan = plan(path);
            let prepared = plan
                .prepare_plan(&PrepareRequest::new(&graph, &cluster))
                .unwrap();
            for (qname, queries) in query_sets(&graph) {
                let matrix = prepared
                    .execute_matrix(&ExecuteRequest::new().with_queries(&queries))
                    .unwrap();
                let ops: Vec<u64> = (0..plan.num_columns())
                    .map(|c| matrix.column_work_ops(c))
                    .collect();
                let rows: Vec<u64> = (0..plan.num_columns())
                    .map(|c| digest(matrix.column_rows(c)))
                    .collect();
                let combined = matrix.combined(plan.combined_k());
                writeln!(
                    out,
                    "{gname} {pname} {qname} q={} cols={ops:?} rows={rows:x?} combined={:x}",
                    queries.len(),
                    digest(combined.iter()),
                )
                .unwrap();
                render_steps(&mut out, &matrix.stats);
            }
        }
    }
    out
}

/// Folds out-neighbor values with an order-sensitive hash; a vertex that
/// gathered anything takes the fold plus one.
struct OutSum;
impl GasStep for OutSum {
    type Vertex = u64;
    type Gather = u64;
    fn name(&self) -> &str {
        "out-sum"
    }
    fn gather(
        &self,
        _: &GatherCtx<'_>,
        _u: VertexId,
        _ud: &u64,
        _v: VertexId,
        vd: &u64,
        _w: &mut WorkTally,
    ) -> Option<u64> {
        Some(*vd)
    }
    fn sum(&self, a: u64, b: u64, w: &mut WorkTally) -> u64 {
        w.add(1);
        a.wrapping_mul(31).wrapping_add(b)
    }
    fn apply(
        &self,
        _: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut u64,
        acc: Option<u64>,
        _: &mut WorkTally,
    ) {
        *data = acc.map_or(*data, |a| a.wrapping_add(1));
    }
}

/// Masked runs on clusters whose per-node memory runs out at different
/// points of the sweep (replica broadcast, gather runs, later steps), for
/// a one-vertex and a 5 % query set. Runs that fit are pinned as `ok`.
fn render_starved() -> String {
    let graph = social();
    let plan = plan(PathLength::Two);
    let mut out = String::new();
    for capacity in STARVED_CAPACITIES {
        let cluster = ClusterSpec {
            memory_per_node: capacity,
            ..ClusterSpec::type_ii(4)
        };
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        for (qname, queries) in query_sets(&graph) {
            if !matches!(qname, "one" | "sample") {
                continue;
            }
            let result = prepared.execute_matrix(&ExecuteRequest::new().with_queries(&queries));
            match result {
                Ok(_) => writeln!(out, "cap={capacity} {qname} ok").unwrap(),
                Err(snaple::core::SnapleError::Engine(EngineError::ResourceExhausted {
                    node,
                    required,
                    capacity,
                    step,
                })) => writeln!(
                    out,
                    "cap={capacity} {qname} node={} required={required} step={step}",
                    node.index()
                )
                .unwrap(),
                Err(e) => panic!("expected memory exhaustion, got {e}"),
            }
        }
    }
    out
}

const STARVED_CAPACITIES: [u64; 4] = [20_000, 90_000, 100_000, 150_000];

fn check(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        panic!("{name} diverged from its golden pin; actual:\n{actual}");
    }
}

#[test]
fn fused_plan_masked_accounting_is_pinned() {
    check("plans", &render_plans(), GOLDEN_PLANS);
}

#[test]
fn capacity_starved_masked_runs_fail_exactly_as_pinned() {
    check("starved", &render_starved(), GOLDEN_STARVED);
}

#[test]
fn an_empty_mask_touches_nothing_but_static_memory() {
    let graph = directed();
    let dep = Deployment::new(
        &graph,
        ClusterSpec::type_i(4),
        PartitionStrategy::RandomVertexCut,
        9,
    )
    .unwrap();
    let mut engine = Engine::on(&dep);
    let mut state = vec![1u64; graph.num_vertices()];
    let empty = VertexMask::empty(graph.num_vertices());
    let s = engine
        .run_step_masked(&OutSum, &mut state, Some(&empty))
        .unwrap();
    assert_eq!(
        (s.gather_calls, s.sum_calls, s.apply_calls, s.work_ops),
        (0, 0, 0, 0)
    );
    assert_eq!(s.network_bytes(), 0);
    assert!(state.iter().all(|&x| x == 1));
}

const GOLDEN_PLANS: &str = r#"social 2hop empty q=0 cols=[0, 0, 0] rows=[cbf29ce484222325, cbf29ce484222325, cbf29ce484222325] combined=cbf29ce484222325
  plan-1-neighborhood g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-2-similarity g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
social 2hop one q=1 cols=[62, 10460, 62] rows=[4eb9cff2df3b7ed, eb8fd619521bab06, 68f99478056520f6] combined=77d6ea36331fc94
  plan-1-neighborhood g=2812 s=2023 a=224 w=10340 b=198500 p=39120 t=0x3fa9aa9fa49639f9 n=[2561,115364,93856][2662,118888,92588][2596,120232,94020][2521,120756,92296]
  plan-2-similarity g=442 s=420 a=22 w=22803 b=93752 p=22852 t=0x3fa9aae1dcd29f0c n=[6038,56560,54852][5005,56680,53680][6665,60676,56092][5095,59292,55272]
  plan-3-score g=21 s=5 a=1 w=297 b=15744 p=676 t=0x3fa99afa1ce03743 n=[43,7864,21256][17,6272,20872][213,8900,21900][24,9804,20588]
social 2hop hub q=1 cols=[86, 22194, 86] rows=[a75288de7354912b, 2d0bc582d606ad67, 5c0daa54e06a6569] combined=54a238c689555876
  plan-1-neighborhood g=4649 s=3476 a=400 w=17622 b=226800 p=67684 t=0x3fa9b0e109cacdfd n=[4300,143148,111476][4452,147292,110148][4591,148256,112340][4279,150272,109476]
  plan-2-similarity g=951 s=890 a=61 w=48492 b=165240 p=49180 t=0x3fa9ba10dc96fb4c n=[12349,104312,87536][12046,105544,86664][12601,112728,88716][11496,106256,85496]
  plan-3-score g=60 s=5 a=1 w=421 b=43348 p=776 t=0x3fa99c96c22c6872 n=[255,20484,31012][30,20928,30176][127,24520,31104][9,22316,29412]
social 2hop sample q=39 cols=[3292, 77553, 3292] rows=[64194d9713ceb348, 9df7c21d374066f0, 82bc210fd2f21376] combined=c028e07eec5a4c72
  plan-1-neighborhood g=7524 s=5928 a=744 w=29656 b=230900 p=116660 t=0x3fa9b8bf78cc25a6 n=[7212,169984,127656][7338,172312,125448][7643,175196,127740][7463,177628,124016]
  plan-2-similarity g=3380 s=3100 a=280 w=163498 b=299120 p=180204 t=0x3fa9f8242c6ec3ba n=[40390,234216,173144][40785,235404,173068][41941,246288,175268][40382,242740,170888]
  plan-3-score g=331 s=186 a=39 w=14034 b=195484 p=37464 t=0x3fa9adc66eb13006 n=[3793,117888,95200][2651,110040,91580][4488,122280,95688][3102,115688,90752]
social 2hop all q=786 cols=[61009, 223585, 61009] rows=[34e1c76412e33a0, 3c6f17feeef84ecc, 45bfe71b066e849c] combined=1de079ed711e6125
  plan-1-neighborhood g=7790 s=6156 a=786 w=30791 b=230900 p=121584 t=0x3fa9b959c8304b71 n=[7493,172380,128896][7682,175104,126748][7855,177420,129240][7761,180064,125696]
  plan-2-similarity g=7790 s=7008 a=786 w=359161 b=313232 p=416280 t=0x3faa57f63a733241 n=[89971,357288,254880][89094,361884,251316][92491,370260,257784][87605,369592,247644]
  plan-3-score g=7790 s=3742 a=786 w=264437 b=528736 p=688076 t=0x3faa4b01c4c6dc02 n=[64734,596940,420592][63987,599784,404624][67215,615344,423104][68501,621556,402960]
social 3hop empty q=0 cols=[0, 0, 0] rows=[cbf29ce484222325, cbf29ce484222325, cbf29ce484222325] combined=cbf29ce484222325
  plan-1-neighborhood g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-2-similarity g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-3b-promote g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,15736][0,0,15488][0,0,16000][0,0,15096]
social 3hop one q=1 cols=[2041, 65172, 2029] rows=[723c019a96e9140e, f7beee42b41524bf, 6c715b04d8767028] combined=83d12353c17cdd21
  plan-1-neighborhood g=6965 s=5448 a=670 w=27318 b=230900 p=107244 t=0x3fa9b7460e12788f n=[6569,164876,124416][6843,168368,122868][7056,170304,125040][6850,172740,121456]
  plan-2-similarity g=2812 s=2588 a=224 w=138719 b=271256 p=149304 t=0x3fa9ea5274bb149e n=[35164,206756,155216][33640,209632,152252][35515,214904,155980][34400,209828,152816]
  plan-3-score g=442 s=110 a=22 w=8535 b=156984 p=20756 t=0x3fa9a70d9ec4bec6 n=[2177,86744,75372][1453,89956,73892][2454,89612,76336][2451,89168,75792]
  plan-3b-promote g=442 s=0 a=22 w=860 b=169656 p=0 t=0x3fa9a33b03e7343a n=[211,81872,72260][140,87672,72040][242,84836,72780][267,84932,71676]
  plan-3-score g=21 s=5 a=1 w=376 b=28416 p=844 t=0x3fa99bdfc263607a n=[63,14104,25576][23,11336,25168][269,15596,26292][21,17484,24812]
social 3hop hub q=1 cols=[5112, 107066, 5112] rows=[f69fb7c3d5dfb844, f333a79c9e56d7fa, db525d1f1b0d2093] combined=dc3a40f382140faf
  plan-1-neighborhood g=7702 s=6082 a=768 w=30419 b=230900 p=120016 t=0x3fa9b91c65c326a7 n=[7362,171344,128416][7604,174528,126128][7745,176464,128560][7708,179496,125316]
  plan-2-similarity g=4649 s=4249 a=400 w=224442 b=308096 p=247936 t=0x3faa17a03091b730 n=[55751,271944,197880][55598,277360,196476][58765,283672,202316][54328,279088,194076]
  plan-3-score g=951 s=298 a=61 w=21914 b=277384 p=54808 t=0x3fa9b67bd4411d48 n=[4977,160868,128240][4747,165004,122668][6580,172644,129452][5610,165868,122800]
  plan-3b-promote g=951 s=0 a=61 w=2110 b=312328 p=0 t=0x3fa9ab5422b4386b n=[451,151828,120376][483,157004,119736][625,159308,120672][551,156516,118760]
  plan-3-score g=60 s=5 a=1 w=534 b=78292 p=1088 t=0x3fa99ebfbb6fc1d5 n=[330,36732,43036][33,37716,41972][162,43948,43044][9,40364,40932]
social 3hop sample q=39 cols=[25590, 183582, 25616] rows=[44098ecb484f9058, cb889a9d008019e1, 1a14f5468d154536] combined=c3e5150e5b74c9d1
  plan-1-neighborhood g=7790 s=6156 a=782 w=30787 b=230900 p=121584 t=0x3fa9b958f170b69b n=[7492,172380,128796][7681,175104,126648][7853,177420,129040][7761,180064,125696]
  plan-2-similarity g=7524 s=6780 a=744 w=348740 b=313232 p=401420 t=0x3faa5328d58df0d7 n=[87742,350140,250904][86610,353428,247136][89991,363524,253164][84397,362212,241932]
  plan-3-score g=3380 s=1360 a=280 w=93219 b=504576 p=242276 t=0x3fa9eaf70534bc2d n=[23646,366212,265976][21740,362188,257240][25055,384472,268256][22778,380832,256900]
  plan-3b-promote g=3380 s=0 a=280 w=8676 b=664128 p=0 t=0x3fa9c0f52f14e126 n=[2080,323492,238736][2104,327560,236248][2334,338328,239504][2158,338876,236088]
  plan-3-score g=331 s=188 a=39 w=16410 b=355036 p=43136 t=0x3fa9b800a78eb288 n=[4360,199232,150852][3139,190616,146944][5223,208332,150984][3688,198164,145760]
social 3hop all q=786 cols=[145110, 309162, 145431] rows=[197bcbcb070713e9, 841c2279b6a3bcd9, c06a28b46458a2fa] combined=700cd5f1c5d44946
  plan-1-neighborhood g=7790 s=6156 a=786 w=30791 b=230900 p=121584 t=0x3fa9b959c8304b71 n=[7493,172380,128896][7682,175104,126748][7855,177420,129240][7761,180064,125696]
  plan-2-similarity g=7790 s=7008 a=786 w=359161 b=313232 p=416280 t=0x3faa57f63a733241 n=[89971,357288,254880][89094,361884,251316][92491,370260,257784][87605,369592,247644]
  plan-3-score g=7790 s=3742 a=786 w=264437 b=528736 p=688076 t=0x3faa4b01c4c6dc02 n=[64734,596940,420592][63987,599784,404624][67215,615344,423104][68501,621556,402960]
  plan-3b-promote g=7790 s=0 a=786 w=22601 b=970840 p=0 t=0x3fa9d743c92d85f6 n=[5386,474292,342412][5601,482624,338172][5740,488464,343712][5874,496300,338072]
  plan-3-score g=7790 s=3775 a=786 w=320399 b=970840 p=817700 t=0x3faa8021a444b74d n=[78905,878284,615476][77856,884488,594804][81235,903336,615092][82403,910972,590644]
directed 2hop empty q=0 cols=[0, 0, 0] rows=[cbf29ce484222325, cbf29ce484222325, cbf29ce484222325] combined=cbf29ce484222325
  plan-1-neighborhood g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-2-similarity g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
directed 2hop one q=1 cols=[112, 2542, 112] rows=[b22f1c073c771d2c, 45d4ba1980ed91e4, becce6d6905ec3e8] combined=d5d98ba9d33ce9fb
  plan-1-neighborhood g=978 s=691 a=127 w=3610 b=82100 p=13940 t=0x3fa9a073e8daf55a n=[952,46900,37044][822,48840,36412][989,49900,35980][847,46440,36764]
  plan-2-similarity g=162 s=136 a=29 w=5543 b=46600 p=8660 t=0x3fa99f4dc8ecb5a4 n=[1557,26672,23408][1475,28260,23216][1155,30068,22692][1356,25520,23376]
  plan-3-score g=28 s=5 a=1 w=480 b=14816 p=1208 t=0x3fa99b1dffcf9672 n=[74,8056,10128][81,9844,10052][296,7944,10496][29,6204,10280]
directed 2hop hub q=1 cols=[102, 6863, 102] rows=[be4d7ea55081720f, 3763e5fe405559bb, be4d7ea55081720f] combined=5cb61293b429c5e3
  plan-1-neighborhood g=1709 s=1216 a=227 w=6376 b=85500 p=24464 t=0x3fa9a284f57eb9f3 n=[1490,52836,40584][1532,55476,40452][1766,57468,40100][1588,54148,41344]
  plan-2-similarity g=388 s=342 a=57 w=15202 b=81716 p=20592 t=0x3fa9a67ba5f9e068 n=[4411,48668,39672][3656,51132,38764][3346,53940,38324][3789,50876,39060]
  plan-3-score g=56 s=5 a=1 w=470 b=30828 p=1100 t=0x3fa99bd0619f04d3 n=[76,14672,15456][85,15864,15380][282,16708,15912][27,16612,15368]
directed 2hop sample q=15 cols=[1100, 18499, 1100] rows=[b98dc94145b1b891, 10dea2a42939d314, ee57b8d2205f751b] combined=90271adb23629207
  plan-1-neighborhood g=2271 s=1585 a=286 w=8333 b=85500 p=31672 t=0x3fa9a3a39147c418 n=[2051,56820,42884][1979,58852,42492][2222,61020,42000][2081,57652,43504]
  plan-2-similarity g=981 s=877 a=122 w=39116 b=103096 p=51160 t=0x3fa9b33c1f437bd1 n=[9718,75636,56020][9934,78720,56440][8992,80848,54512][10472,73308,57928]
  plan-3-score g=135 s=48 a=15 w=4696 b=67232 p=12028 t=0x3fa9a14896700f1f n=[1259,39168,30772][840,40380,32044][1888,43776,33800][709,35196,31476]
directed 2hop all q=300 cols=[19607, 60126, 19607] rows=[7ea71342a0359492, 25128268b7127969, 4a64adb95fd5d957] combined=8f1f0526d4c87d79
  plan-1-neighborhood g=2335 s=1633 a=300 w=8583 b=85500 p=32748 t=0x3fa9a3ca1686769f n=[2149,57424,43324][2038,59376,42712][2278,61580,42220][2118,58116,43844]
  plan-2-similarity g=2335 s=2072 a=300 w=91261 b=107928 p=121920 t=0x3fa9cdd0e84145bc n=[22909,112356,81736][22084,112584,79300][22276,123096,78664][23992,111660,83272]
  plan-3-score g=2335 s=875 a=300 w=84121 b=164456 p=206068 t=0x3fa9d29719c02324 n=[20866,182028,125852][19932,179140,126912][22354,194220,124420][20969,185660,135420]
directed 3hop empty q=0 cols=[0, 0, 0] rows=[cbf29ce484222325, cbf29ce484222325, cbf29ce484222325] combined=cbf29ce484222325
  plan-1-neighborhood g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-2-similarity g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-3b-promote g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
  plan-3-score g=0 s=0 a=0 w=0 b=0 p=0 t=0x3fa999999999999a n=[0,0,4784][0,0,4472][0,0,4480][0,0,4944]
directed 3hop one q=1 cols=[1600, 18692, 1600] rows=[1ce62240c3e91e2b, f698bbb17fd7da69, a6ab9c5e4126add3] combined=35774ba796fe087d
  plan-1-neighborhood g=2258 s=1574 a=286 w=8278 b=85500 p=31412 t=0x3fa9a396dfb544b7 n=[2056,56736,42844][1987,58856,42432][2203,60844,41860][2032,57388,43564]
  plan-2-similarity g=978 s=864 a=127 w=38447 b=103776 p=50532 t=0x3fa9b31feedc0bf2 n=[10371,77212,57820][9060,75664,55368][8838,81376,55868][10178,74364,57780]
  plan-3-score g=162 s=69 a=29 w=6360 b=70552 p=15704 t=0x3fa9a20aac565fb3 n=[1789,41504,33184][2202,43992,34368][1462,46100,32316][907,40916,35276]
  plan-3b-promote g=162 s=0 a=29 w=623 b=84664 p=0 t=0x3fa99eb9bb8e6629 n=[173,40668,32904][254,44508,33204][128,44912,32532][68,39240,33536]
  plan-3-score g=28 s=5 a=1 w=536 b=28928 p=1364 t=0x3fa99c298f172008 n=[81,15412,14892][78,18952,14936][351,14436,15260][26,11784,15140]
directed 3hop hub q=1 cols=[3634, 33174, 3636] rows=[c0ad4ebebd016571, 678fef5ec28144bc, c0ad4ebebd016571] combined=8f4dcf1a515afbe
  plan-1-neighborhood g=2335 s=1633 a=300 w=8583 b=85500 p=32748 t=0x3fa9a3ca1686769f n=[2149,57424,43324][2038,59376,42712][2278,61580,42220][2118,58116,43844]
  plan-2-similarity g=1709 s=1510 a=227 w=66569 b=107928 p=89372 t=0x3fa9c1e245d76608 n=[15802,94060,69632][16270,96948,69236][16761,107052,70708][17736,96540,72528]
  plan-3-score g=388 s=159 a=57 w=14932 b=124564 p=38100 t=0x3fa9a94fcbee762d n=[3663,79124,60276][3173,79676,56276][3900,84276,57776][4196,82252,60496]
  plan-3b-promote g=388 s=0 a=57 w=1237 b=151396 p=0 t=0x3fa9a26b804fc84a n=[297,72296,55352][306,77028,55876][307,79004,54924][327,74464,55916]
  plan-3-score g=56 s=5 a=1 w=569 b=57660 p=1340 t=0x3fa99d66ba968bc0 n=[89,27428,24564][90,29472,24524][363,30580,25176][27,30520,24236]
directed 3hop sample q=15 cols=[9222, 48778, 9231] rows=[2b729f6f21bb7c7c, abb5abee3af1b78d, f03fa071f64d2dbb] combined=f978486b45c36527
  plan-1-neighborhood g=2335 s=1633 a=300 w=8583 b=85500 p=32748 t=0x3fa9a3ca1686769f n=[2149,57424,43324][2038,59376,42712][2278,61580,42220][2118,58116,43844]
  plan-2-similarity g=2271 s=2021 a=286 w=89144 b=107928 p=118644 t=0x3fa9ccd364b8dea6 n=[22110,110416,80172][21707,111052,78552][21836,121480,77916][23491,110196,81980]
  plan-3-score g=981 s=349 a=122 w=34172 b=157416 p=82032 t=0x3fa9b5d6a6955593 n=[9169,118852,84172][9357,120764,85012][8010,123100,81416][7636,116180,89316]
  plan-3b-promote g=981 s=0 a=122 w=2921 b=217080 p=0 t=0x3fa9a6aaf17d27c1 n=[771,106916,77588][822,111048,78156][725,111780,76764][603,104416,78056]
  plan-3-score g=135 s=48 a=15 w=4807 b=126896 p=12892 t=0x3fa9a4b09638d0a7 n=[1299,70128,50848][754,71964,52288][2004,74448,54200][750,63036,52272]
directed 3hop all q=300 cols=[42476, 82269, 42486] rows=[b6486447868f2229, b2eb7d31e11d6ce, e05c11dcf3a38c9a] combined=5955b2d186d9f7ba
  plan-1-neighborhood g=2335 s=1633 a=300 w=8583 b=85500 p=32748 t=0x3fa9a3ca1686769f n=[2149,57424,43324][2038,59376,42712][2278,61580,42220][2118,58116,43844]
  plan-2-similarity g=2335 s=2072 a=300 w=91261 b=107928 p=121920 t=0x3fa9cdd0e84145bc n=[22909,112356,81736][22084,112584,79300][22276,123096,78664][23992,111660,83272]
  plan-3-score g=2335 s=875 a=300 w=84121 b=164456 p=206068 t=0x3fa9d29719c02324 n=[20866,182028,125852][19932,179140,126912][22354,194220,124420][20969,185660,135420]
  plan-3b-promote g=2335 s=0 a=300 w=7204 b=311912 p=0 t=0x3fa9adaf880fd0d0 n=[1771,152656,109656][1826,158568,110440][1899,161880,108736][1708,150720,109496]
  plan-3-score g=2335 s=877 a=300 w=88955 b=311912 p=231400 t=0x3fa9de9142ce7fd7 n=[22068,266580,184328][20938,266692,185160][23881,284584,182608][22068,268768,193304]
"#;
const GOLDEN_STARVED: &str = r#"cap=20000 one node=0 required=82336 step=plan-1-neighborhood
cap=20000 sample node=0 required=93436 step=plan-1-neighborhood
cap=90000 one node=0 required=90016 step=plan-1-neighborhood
cap=90000 sample node=0 required=93436 step=plan-1-neighborhood
cap=100000 one ok
cap=100000 sample node=0 required=100016 step=plan-1-neighborhood
cap=150000 one ok
cap=150000 sample node=0 required=150024 step=plan-2-similarity
"#;
