//! Integration: the full task-signature pipeline — learn automata from
//! simulated task runs, detect tasks inside noisy logs, and use the task
//! time series to turn would-be alarms into known changes (Figure 7).

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn testbed() -> (Lab, FlowDiffConfig) {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    (lab, config)
}

/// Records of one isolated 30 s task run.
fn task_records(lab: &Lab, config: &FlowDiffConfig, task: TaskKind, seed: u64) -> Vec<FlowRecord> {
    extract_records(&lab.task_run(seed, task, 30).run().log, config)
}

#[test]
fn learned_migration_automaton_detects_in_noise() {
    let (lab, config) = testbed();
    let migration = TaskKind::VmMigration {
        src_host: lab.ip("S1"),
        dst_host: lab.ip("S2"),
    };
    let runs: Vec<Vec<FlowRecord>> = (0..20)
        .map(|i| task_records(&lab, &config, migration, 500 + i))
        .collect();
    let automaton = learn_task("vm_migration", &runs, true, &config);
    assert!(automaton.state_count() > 0);

    // Production log with background traffic and a migration between
    // two different hosts at t=30s.
    let mut sc = lab.shop(9, 5.0, 60);
    sc.task(
        Timestamp::from_secs(30),
        TaskKind::VmMigration {
            src_host: lab.ip("S5"),
            dst_host: lab.ip("S6"),
        },
    );
    let records = extract_records(&sc.run().log, &config);

    let mut library = TaskLibrary::new();
    library.add(automaton);
    let events = library.detect(&records, &config);
    assert_eq!(events.len(), 1, "exactly one migration: {events:?}");
    assert_eq!(events[0].task, "vm_migration");
    assert!(events[0].start >= Timestamp::from_secs(30));
    assert!(events[0].hosts.contains(&lab.ip("S5")));
    assert!(events[0].hosts.contains(&lab.ip("S6")));
}

#[test]
fn no_false_detection_without_task() {
    let (lab, config) = testbed();
    let migration = TaskKind::VmMigration {
        src_host: lab.ip("S1"),
        dst_host: lab.ip("S2"),
    };
    let runs: Vec<Vec<FlowRecord>> = (0..20)
        .map(|i| task_records(&lab, &config, migration, 500 + i))
        .collect();
    let automaton = learn_task("vm_migration", &runs, true, &config);

    // Pure application traffic: no migration anywhere.
    let records = extract_records(&lab.shop(11, 10.0, 60).run().log, &config);
    let mut library = TaskLibrary::new();
    library.add(automaton);
    assert!(library.detect(&records, &config).is_empty());
}

#[test]
fn full_task_library_builds_ordered_time_series() {
    // Learn five task automata, perform four different tasks during one
    // capture, and verify the detected time series is complete and
    // chronological (the "task time series" of Section III-D).
    let (lab, config) = testbed();
    let train = |name: &str, task: TaskKind, base_seed: u64| {
        let runs: Vec<Vec<FlowRecord>> = (0..15)
            .map(|i| task_records(&lab, &config, task, base_seed + i))
            .collect();
        learn_task(name, &runs, true, &config)
    };
    let mut library = TaskLibrary::new();
    library
        .add(train(
            "vm_migration",
            TaskKind::VmMigration {
                src_host: lab.ip("S1"),
                dst_host: lab.ip("S2"),
            },
            2_000,
        ))
        .add(train(
            "mount_nfs",
            TaskKind::MountNfs { host: lab.ip("S1") },
            3_000,
        ))
        .add(train(
            "unmount_nfs",
            TaskKind::UnmountNfs { host: lab.ip("S1") },
            4_000,
        ))
        .add(train(
            "vm_stop",
            TaskKind::VmStop { vm: lab.ip("VM1") },
            5_000,
        ));

    // One production capture with all four tasks, well separated, plus
    // background app traffic.
    let mut sc = lab.shop(42, 4.0, 120);
    sc.task(
        Timestamp::from_secs(15),
        TaskKind::MountNfs { host: lab.ip("S9") },
    )
    .task(
        Timestamp::from_secs(40),
        TaskKind::VmMigration {
            src_host: lab.ip("S5"),
            dst_host: lab.ip("S6"),
        },
    )
    .task(
        Timestamp::from_secs(70),
        TaskKind::VmStop { vm: lab.ip("VM3") },
    )
    .task(
        Timestamp::from_secs(95),
        TaskKind::UnmountNfs { host: lab.ip("S9") },
    );
    let records = extract_records(&sc.run().log, &config);
    let events = library.detect(&records, &config);

    let names: Vec<&str> = events.iter().map(|e| e.task.as_str()).collect();
    assert!(names.contains(&"mount_nfs"), "series: {names:?}");
    assert!(names.contains(&"vm_migration"), "series: {names:?}");
    assert!(names.contains(&"vm_stop"), "series: {names:?}");
    assert!(names.contains(&"unmount_nfs"), "series: {names:?}");

    // chronological and matching the schedule
    let pos = |n: &str| events.iter().position(|e| e.task == n).unwrap();
    assert!(pos("mount_nfs") < pos("vm_migration"));
    assert!(pos("vm_migration") < pos("vm_stop"));
    assert!(pos("vm_stop") < pos("unmount_nfs"));
    assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
}

#[test]
fn task_validation_suppresses_known_changes() {
    let (lab, config) = testbed();

    // Baseline: app traffic only.
    let capture = |seed: u64, with_mount: bool| {
        let mut sc = lab.webshop(seed, 60);
        if with_mount {
            // The operator mounts network storage on the web server
            // during L2: new S13 -> NFS service edges appear.
            sc.task(
                Timestamp::from_secs(20),
                TaskKind::MountNfs {
                    host: lab.ip("S13"),
                },
            );
        }
        sc.run().log
    };

    let l1 = capture(1, false);
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    let l2 = capture(2, true);
    let current = BehaviorModel::build(&l2, &config);
    let current_records = current.records.to_vec();

    // Learn the mount task and detect it in L2.
    let mount = TaskKind::MountNfs { host: lab.ip("S1") };
    let runs: Vec<Vec<FlowRecord>> = (0..15)
        .map(|i| task_records(&lab, &config, mount, 700 + i))
        .collect();
    let automaton = learn_task("mount_nfs", &runs, true, &config);
    let mut library = TaskLibrary::new();
    library.add(automaton);
    let tasks = library.detect(&current_records, &config);
    assert!(
        tasks.iter().any(|t| t.task == "mount_nfs"),
        "the mount must be detected in L2: {tasks:?}"
    );

    // Without the task series the new edges raise alarms...
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    let unexplained = diagnose(&diff, &current, &[], &config);
    assert!(
        unexplained
            .unknown
            .iter()
            .any(|c| c.kind == SignatureKind::Cg),
        "without task knowledge the new NFS edge is an alarm"
    );

    // ...with the task series they become known changes (Figure 7).
    let explained = diagnose(&diff, &current, &tasks, &config);
    assert!(
        explained
            .known
            .iter()
            .any(|(c, t)| c.kind == SignatureKind::Cg && t.task == "mount_nfs"),
        "the mount task must explain the new edge: {explained}"
    );
    assert!(
        !explained
            .unknown
            .iter()
            .any(|c| c.kind == SignatureKind::Cg),
        "no CG alarm should survive task validation: {explained}"
    );
}
