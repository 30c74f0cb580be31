//! Benchmarks of the modeling layer: building one submodel with either
//! strategy.  perfbench builds with Refinement only; Expansion is timed here
//! against it.  Writes `BENCH_modeling.json`.

use std::error::Error;

use dla_bench::harness::Bench;
use dla_core::blas::{Call, Diag, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::{Locality, SimExecutor};
use dla_core::model::Region;
use dla_core::modeler::{ExpansionConfig, Modeler, RefinementConfig, Strategy};

fn main() -> Result<(), Box<dyn Error>> {
    let template = Call::trsm(
        Side::Left,
        Uplo::Lower,
        Trans::NoTrans,
        Diag::NonUnit,
        8,
        8,
        0.5,
    );
    let space = Region::new(vec![8, 8], vec![512, 512]);
    let build = |strategy: Strategy| {
        let mut modeler = Modeler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            Locality::InCache,
            1,
            strategy,
        );
        modeler.build_submodel(&template, &space)
    };
    let mut bench = Bench::new("modeling");
    let refinement = bench.time("modeler_adaptive_refinement_512", "modeler.build", || {
        build(Strategy::Refinement(RefinementConfig {
            error_bound: 0.10,
            min_region_size: 64,
            grid_per_dim: 3,
            degree: 2,
        }))
    })?;
    let expansion = bench.time("modeler_model_expansion_512", "modeler.build", || {
        build(Strategy::Expansion(ExpansionConfig {
            error_bound: 0.10,
            initial_size: 128,
            grid_per_dim: 3,
            ..Default::default()
        }))
    })?;
    println!("  expansion vs refinement: {:.2}x", expansion / refinement);
    Ok(bench.finish()?)
}
