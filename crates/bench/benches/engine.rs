//! Engine throughput under the real hot-potato workload: sequential kernel
//! vs 1-PE and 2-PE Time Warp, and the block mapping vs the naive linear
//! mapping (the paper's Section 3.2.3 design choice).
//!
//! ```sh
//! cargo bench -p bench --bench engine
//! ```

use bench::bench_time;
use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, LinearMapping, Run};
use topo::BlockMapping;

fn model() -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(8, 60))
}

fn main() {
    let m = model();
    let engine = EngineConfig::new(m.end_time()).with_seed(99);
    let samples = 10;

    println!("# kernel_8x8_60steps");
    bench_time("sequential", samples, || {
        m.run(&engine).sequential().go().unwrap().output
    });
    {
        let cfg = engine.clone().with_pes(1).with_kps(16);
        bench_time("timewarp_1pe", samples, || m.run(&cfg).go().unwrap().output);
    }
    {
        let cfg = engine.clone().with_pes(2).with_kps(16);
        bench_time("timewarp_2pe", samples, || m.run(&cfg).go().unwrap().output);
    }

    println!("# mapping_8x8_2pe");
    {
        let cfg = engine.clone().with_pes(2).with_kps(16);
        let mapping = BlockMapping::new(8, 16, 2);
        bench_time("block", samples, || {
            Run::new(&m, &cfg).mapping(&mapping).go().unwrap().output
        });
    }
    {
        let cfg = engine.clone().with_pes(2).with_kps(16);
        let mapping = LinearMapping::new(64, 16, 2);
        bench_time("linear", samples, || {
            Run::new(&m, &cfg).mapping(&mapping).go().unwrap().output
        });
    }
}
