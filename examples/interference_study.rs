//! Interference study (paper §II-B / §VI-B in miniature): profile a
//! searching component against each BigDataBench workload at several input
//! sizes, train the Eq. 1 model, and print predicted vs measured service
//! times.
//!
//! Run with: `cargo run --example interference_study --release`

use pcs_monitor::SamplerConfig;
use pcs_regression::CombinedServiceTimeModel;
use pcs_sim::profiler::{measure_mean_service, profile_class};
use pcs_types::NodeCapacity;
use pcs_workloads::{BatchWorkload, JobSpec, ServiceTopology};

fn main() {
    let topology = ServiceTopology::nutch(1);
    let classes = topology.classes();
    let searching = 1usize;
    let capacity = NodeCapacity::XEON_E5645;
    let sizes = [64.0, 512.0, 2048.0, 8192.0];

    println!("searching-component service time under co-located batch jobs");
    println!("(predicted by the Eq. 1 regression vs measured ground truth)\n");
    println!(
        "{:>18} {:>9} {:>13} {:>12} {:>11} {:>8}",
        "workload", "input MB", "demand cores", "predicted ms", "actual ms", "err %"
    );

    for workload in BatchWorkload::ALL {
        // Train on a grid of this workload's sizes (historical runs).
        let schedule: Vec<_> = workload
            .figure5_input_grid()
            .iter()
            .map(|&mb| JobSpec::new(workload, mb).capped_to_vm(4.0).demand)
            .collect();
        let samples = profile_class(
            classes,
            searching,
            capacity,
            &schedule,
            40,
            40,
            SamplerConfig::PAPER,
            3,
        );
        let model = CombinedServiceTimeModel::train(&samples, 2).unwrap();

        for &mb in &sizes {
            let job = JobSpec::new(workload, mb).capped_to_vm(4.0);
            let own = classes[searching].own_demand;
            let u = capacity.normalize(&(job.demand + own));
            let predicted = model.predict_clamped(&u) * 1e3;
            let actual =
                measure_mean_service(classes, searching, capacity, job.demand, 20_000, 11) * 1e3;
            let err = 100.0 * ((predicted - actual) / actual).abs();
            println!(
                "{:>18} {:>9.0} {:>13.2} {:>12.3} {:>11.3} {:>8.2}",
                workload.name(),
                mb,
                job.demand.cores,
                predicted,
                actual,
                err
            );
        }
        // The Eq. 1 weights reveal which resource dominates for this job.
        let w = model.weights();
        println!(
            "{:>18} weights: core {:.2}  cache {:.2}  disk {:.2}  net {:.2}\n",
            "", w[0], w[1], w[2], w[3]
        );
    }
}
