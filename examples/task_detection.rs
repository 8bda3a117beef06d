//! Task detection: learns automata for VM startup (per image) and VM
//! migration from training runs, then detects those tasks inside a noisy
//! production log — the paper's EC2 experiment, in simulation.
//!
//! Run with: `cargo run --example task_detection`

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let ip = |n: &str| lab.ip(n);

    // 1. Learn automata from 20 training runs each.
    let mut library = TaskLibrary::new();
    let startup = |vm, image| TaskKind::VmStartup { vm, image };
    let training: Vec<(&str, TaskKind)> = vec![
        ("vm_startup_ubuntu", startup(ip("VM1"), VmImage::Ubuntu)),
        ("vm_startup_ami", startup(ip("VM2"), VmImage::AmazonAmi(0))),
        (
            "vm_migration",
            TaskKind::VmMigration {
                src_host: ip("S1"),
                dst_host: ip("S2"),
            },
        ),
    ];
    for (name, task) in &training {
        let runs: Vec<Vec<FlowRecord>> = (0..20)
            .map(|i| extract_records(&lab.task_run(1000 + i, *task, 30).run().log, &config))
            .collect();
        let automaton = learn_task(name, &runs, true, &config);
        println!(
            "learned {name}: {} states, {} start, {} final",
            automaton.state_count(),
            automaton.start_states().len(),
            automaton.final_states().len()
        );
        library.add(automaton);
    }

    // 2. A production log: the shop's background web traffic plus a
    //    Ubuntu startup on a *different* VM and a migration between
    //    *different* hosts — masked automata must still catch both.
    //    Individual startups can stall past the 1 s interleaving bound
    //    (that is where Table III's missed detections come from), so the
    //    example boots two fresh VMs and expects at least one hit.
    let mut sc = lab.shop(77, 5.0, 90);
    sc.task(
        Timestamp::from_secs(20),
        startup(ip("VM4"), VmImage::Ubuntu),
    )
    .task(
        Timestamp::from_secs(35),
        startup(ip("VM5"), VmImage::Ubuntu),
    )
    .task(
        Timestamp::from_secs(50),
        TaskKind::VmMigration {
            src_host: ip("S5"),
            dst_host: ip("S6"),
        },
    );
    let log = sc.run().log;
    let records = extract_records(&log, &config);
    println!(
        "\nproduction log: {} control events, {} flows",
        log.len(),
        records.len()
    );

    // 3. Detect.
    let events = library.detect(&records, &config);
    println!("detected task time series:");
    for e in &events {
        println!(
            "  {} @ [{} .. {}] involving {:?}",
            e.task, e.start, e.end, e.hosts
        );
    }
    assert!(
        events.iter().any(|e| e.task == "vm_startup_ubuntu"),
        "the Ubuntu startup must be detected"
    );
    assert!(
        events.iter().any(|e| e.task == "vm_migration"),
        "the migration must be detected"
    );
}
