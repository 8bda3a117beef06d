//! Table III — Accuracy of task-signature matching: learn VM-startup
//! automata (masked and unmasked) for four VM images from 50 runs each,
//! then measure true positives (automaton matches its own VM's startup)
//! and false positives (masked automaton matches a *different* VM's
//! startup).
//!
//! The paper's four EC2 instances: three Amazon-AMI images sharing a
//! base OS (masked cross-matches possible) and one Ubuntu image (never
//! confused with an AMI).

use flowdiff::prelude::*;
use flowdiff_bench::print_table;
use workloads::prelude::*;

struct Vm {
    label: &'static str,
    host: &'static str,
    image: VmImage,
    test_runs: u64,
}

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let vms = [
        Vm {
            label: "i-3486634d (AMI)",
            host: "VM1",
            image: VmImage::AmazonAmi(0),
            test_runs: 20,
        },
        Vm {
            label: "i-5d021f3b (AMI)",
            host: "VM2",
            image: VmImage::AmazonAmi(1),
            test_runs: 20,
        },
        Vm {
            label: "i-c5ebf1a3 (Ubuntu)",
            host: "VM3",
            image: VmImage::Ubuntu,
            test_runs: 5,
        },
        Vm {
            label: "i-d55066b3 (AMI)",
            host: "VM4",
            image: VmImage::AmazonAmi(2),
            test_runs: 20,
        },
    ];
    const TRAIN_RUNS: u64 = 50;
    // The records of one isolated 25 s startup run of `vm`.
    let startup = |vm: &Vm, seed: u64| {
        let task = TaskKind::VmStartup {
            vm: lab.ip(vm.host),
            image: vm.image,
        };
        extract_records(&lab.task_run(seed, task, 25).run().log, &config)
    };

    println!("Table III - accuracy of task signature matching");
    println!("training: {TRAIN_RUNS} startup runs per VM; masked and unmasked automata\n");

    // Learn per-VM automata.
    let mut unmasked = Vec::new();
    let mut masked = Vec::new();
    for (vi, vm) in vms.iter().enumerate() {
        let runs: Vec<Vec<FlowRecord>> = (0..TRAIN_RUNS)
            .map(|r| startup(vm, 1_000 * (vi as u64 + 1) + r))
            .collect();
        unmasked.push(learn_task(vm.label, &runs, false, &config));
        masked.push(learn_task(vm.label, &runs, true, &config));
    }

    // Test: fresh startup runs of each VM against each automaton.
    let mut rows = Vec::new();
    for (vi, vm) in vms.iter().enumerate() {
        let own_tests: Vec<Vec<FlowRecord>> = (0..vm.test_runs)
            .map(|r| startup(vm, 900_000 + 1_000 * vi as u64 + r))
            .collect();

        let detect_with = |automaton: &TaskAutomaton, records: &[FlowRecord]| -> bool {
            let mut lib = TaskLibrary::new();
            lib.add(automaton.clone());
            !lib.detect(records, &config).is_empty()
        };

        let tp_unmasked = own_tests
            .iter()
            .filter(|r| detect_with(&unmasked[vi], r))
            .count();
        let tp_masked = own_tests
            .iter()
            .filter(|r| detect_with(&masked[vi], r))
            .count();

        // False positives: the masked automaton against the OTHER VMs'
        // startups (paper: 40 or 60 foreign runs per automaton).
        let mut fp = 0usize;
        let mut foreign = 0usize;
        for (vj, other) in vms.iter().enumerate() {
            if vi == vj {
                continue;
            }
            for r in 0..other.test_runs {
                let records = startup(other, 800_000 + 1_000 * vj as u64 + r);
                foreign += 1;
                if detect_with(&masked[vi], &records) {
                    fp += 1;
                }
            }
        }

        rows.push(vec![
            (vi + 1).to_string(),
            vm.label.to_string(),
            format!("{tp_unmasked}/{}", vm.test_runs),
            format!("{tp_masked}/{}", vm.test_runs),
            format!("{fp}/{foreign}"),
        ]);
    }

    print_table(
        &[
            "ID",
            "AMI name",
            "TP (not masked)",
            "TP (masked)",
            "FP (masked)",
        ],
        &rows,
    );
    println!("\npaper: TP 17-20/20 (5/5 Ubuntu) unmasked, 14-19/20 masked;");
    println!("       FP 1-7/40 for AMI-vs-AMI, 0/60 against Ubuntu");

    // Shape checks: near-perfect TP; Ubuntu never matches an AMI automaton.
    let ubuntu_idx = 2;
    for (vi, vm) in vms.iter().enumerate() {
        if vi == ubuntu_idx {
            continue;
        }
        // AMI masked automaton must never match Ubuntu's startup.
        for r in 0..vms[ubuntu_idx].test_runs {
            let records = startup(&vms[ubuntu_idx], 700_000 + r);
            let mut lib = TaskLibrary::new();
            lib.add(masked[vi].clone());
            assert!(
                lib.detect(&records, &config).is_empty(),
                "{} wrongly matched Ubuntu",
                vm.label
            );
        }
    }
    println!("check: no AMI automaton ever matches the Ubuntu startup (as in the paper)");
}
