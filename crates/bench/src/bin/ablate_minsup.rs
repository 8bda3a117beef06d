//! Ablation — minimum support (`min_sup`) for task-signature mining:
//! sweeps the threshold the paper fixes at 0.6 and reports automaton
//! size, true positives, and false positives for the VM-startup task.
//!
//! Low support keeps rare noise flows as states (bigger automata,
//! potentially brittle matching); high support can drop legitimate
//! variation. The paper's 0.6 sits on the plateau.

use flowdiff::prelude::*;
use flowdiff_bench::print_table;
use workloads::prelude::*;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let image = VmImage::AmazonAmi(1);
    let foreign_image = VmImage::AmazonAmi(3);
    // The records of one isolated 25 s startup run.
    let startup = |vm: &str, image, seed| {
        let task = TaskKind::VmStartup {
            vm: lab.ip(vm),
            image,
        };
        extract_records(&lab.task_run(seed, task, 25).run().log, &config)
    };

    let training: Vec<Vec<FlowRecord>> =
        (0..40).map(|i| startup("VM1", image, 3_000 + i)).collect();
    let own_tests: Vec<Vec<FlowRecord>> =
        (0..20).map(|i| startup("VM2", image, 9_000 + i)).collect();
    let foreign_tests: Vec<Vec<FlowRecord>> = (0..20)
        .map(|i| startup("VM3", foreign_image, 12_000 + i))
        .collect();

    println!("Ablation - min_sup sweep for task-signature mining (paper: 0.6)\n");
    let mut rows = Vec::new();
    for min_sup in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut config = config.clone();
        config.min_sup = min_sup;
        let automaton = learn_task("vm_startup", &training, true, &config);

        let detect = |records: &[FlowRecord]| {
            let mut lib = TaskLibrary::new();
            lib.add(automaton.clone());
            !lib.detect(records, &config).is_empty()
        };
        let tp = own_tests.iter().filter(|r| detect(r)).count();
        let fp = foreign_tests.iter().filter(|r| detect(r)).count();
        rows.push(vec![
            format!("{min_sup:.1}"),
            automaton.state_count().to_string(),
            format!("{tp}/20"),
            format!("{fp}/20"),
        ]);
    }
    print_table(
        &["min_sup", "states", "TP (same image)", "FP (other AMI)"],
        &rows,
    );
    println!("\n(the same-image TP uses a different VM, so automata are masked;");
    println!(" the FP column tests a different AMI variant's startups)");

    // At the paper's setting the automaton must be useful.
    let at_paper = rows.iter().find(|r| r[0] == "0.6").unwrap();
    let tp: usize = at_paper[2].split('/').next().unwrap().parse().unwrap();
    let fp: usize = at_paper[3].split('/').next().unwrap().parse().unwrap();
    assert!(tp >= 12, "min_sup 0.6 must keep TP high: {tp}/20");
    assert!(fp <= 6, "min_sup 0.6 must keep FP low: {fp}/20");

    println!(
        "\nnote: the sweep is nearly flat because the common-flow intersection\n         (stage 1) already restricts mining to flows present in every run,\n         so surviving patterns have ~100% support regardless of min_sup."
    );

    // The sensitive knob is the interleave bound (paper: 1 s): too tight
    // and legitimate boot stalls break matches; looser recovers them.
    println!("\nAblation - task-matching interleave bound (paper: 1 s)\n");
    let automaton = learn_task("vm_startup", &training, true, &config);
    let mut rows2 = Vec::new();
    for bound_ms in [200u64, 500, 1_000, 2_500, 5_000] {
        let mut config = config.clone();
        config.interleave_us = bound_ms * 1_000;
        let detect = |records: &[FlowRecord]| {
            let mut lib = TaskLibrary::new();
            lib.add(automaton.clone());
            !lib.detect(records, &config).is_empty()
        };
        let tp = own_tests.iter().filter(|r| detect(r)).count();
        let fp = foreign_tests.iter().filter(|r| detect(r)).count();
        rows2.push(vec![
            format!("{} ms", bound_ms),
            format!("{tp}/20"),
            format!("{fp}/20"),
        ]);
    }
    print_table(
        &["interleave bound", "TP (same image)", "FP (other AMI)"],
        &rows2,
    );
    println!("\n(boot stalls of 1.2-2 s cause the misses at tight bounds; a loose");
    println!(" bound recovers them without raising cross-variant false positives)");

    let tight: usize = rows2[0][1].split('/').next().unwrap().parse().unwrap();
    let loose: usize = rows2.last().unwrap()[1]
        .split('/')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        loose > tight,
        "loosening the bound must recover stalled matches: {tight} -> {loose}"
    );
}
