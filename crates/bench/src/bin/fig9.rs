//! Figure 9 — Effect of injected problems on flow statistics and delay
//! distribution:
//!
//! * (a) CDF of per-flow byte counts into the application server,
//!   vanilla vs. packet loss (retransmissions inflate byte counts);
//! * (b) CDF of delays between incoming and outgoing flows at the
//!   application server, vanilla vs. logging-enabled vs. loss.

use flowdiff::prelude::*;
use flowdiff_bench::{edge_byte_counts, pair_delays, print_cdf};
use netsim::prelude::*;
use workloads::prelude::*;

#[derive(Clone, Copy)]
enum Variant {
    Vanilla,
    Loss,
    Logging,
}

fn capture(lab: &Lab, seed: u64, variant: Variant) -> ControllerLog {
    let mut sc = Scenario::new(
        lab.topo.clone(),
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(121),
    );
    sc.services(lab.catalog.clone())
        .app(templates::three_tier(
            "webshop",
            vec![lab.ip("S13")],
            vec![lab.ip("S4")],
            vec![lab.ip("S14")],
            None,
        ))
        .client(ClientWorkload {
            client: lab.ip("S25"),
            entry_hosts: vec![lab.ip("S13")],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(8.0),
            request_bytes: 8_192,
        });
    match variant {
        Variant::Vanilla => {}
        Variant::Loss => {
            // 1% loss on both links carrying web <-> app traffic
            // (the paper's tc experiment).
            for link in [
                lab.topo
                    .link_between(lab.node("of1"), lab.node("of7"))
                    .expect("of1-of7"),
                lab.topo
                    .link_between(lab.node("of4"), lab.node("of7"))
                    .expect("of4-of7"),
            ] {
                sc.fault(Timestamp::ZERO, Fault::LinkLoss { link, rate: 0.01 });
            }
        }
        Variant::Logging => {
            sc.fault(
                Timestamp::ZERO,
                Fault::HostSlowdown {
                    host: lab.node("S4"),
                    extra_us: 80_000,
                },
            );
        }
    }
    sc.run().log
}

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    println!("Figure 9 - packet loss / logging change byte counts and delays\n");

    let vanilla = capture(&lab, 1, Variant::Vanilla);
    let loss = capture(&lab, 2, Variant::Loss);
    let logging = capture(&lab, 3, Variant::Logging);

    // (a) byte counts of flows into the app server (port 8080).
    let app_ip = lab.ip("S4");
    let db_ip = lab.ip("S14");
    let mut b_vanilla = edge_byte_counts(&vanilla, &config, app_ip, 8080);
    let mut b_loss = edge_byte_counts(&loss, &config, app_ip, 8080);
    println!("--- (a) byte count CDF of web->app flows ---");
    print_cdf("vanilla", &mut b_vanilla, 10);
    print_cdf("loss", &mut b_loss, 10);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let inflation = mean(&b_loss) / mean(&b_vanilla);
    println!("\nbyte inflation under loss: {inflation:.2}x (paper: clearly > 1)");

    // (b) delays between incoming (web->app) and outgoing (app->db)
    // flows at the app server.
    println!("\n--- (b) delay CDF at the app server (ms) ---");
    for (label, log) in [
        ("vanilla", &vanilla),
        ("logging", &logging),
        ("loss", &loss),
    ] {
        let mut d: Vec<f64> = pair_delays(log, &config, app_ip, db_ip)
            .into_iter()
            .map(|us| us / 1_000.0)
            .collect();
        print_cdf(label, &mut d, 10);
    }

    // Shape assertions matching the paper's reading of the figure. The
    // all-pairs distribution carries a uniform background (unrelated
    // flow pairs inside the 1 s window), so the *peak* — the dependent
    // processing delay — is the robust statistic.
    let peak_of = |log: &ControllerLog| -> u64 {
        let model = BehaviorModel::build(log, &config);
        let g = model.group_of(app_ip).expect("app group");
        g.delay
            .peaks(config.min_samples)
            .iter()
            .find(|((a, b), _)| a.dst == app_ip && b.src == app_ip && b.dst == db_ip)
            .map(|(_, (lo, _))| *lo)
            .expect("delay peak")
    };
    let (pv, plog, ploss) = (peak_of(&vanilla), peak_of(&logging), peak_of(&loss));
    println!(
        "\ndelay peak: vanilla {}ms, logging {}ms, loss {}ms",
        pv / 1_000,
        plog / 1_000,
        ploss / 1_000
    );
    assert!(inflation > 1.02, "loss must inflate byte counts");
    assert!(
        plog > pv,
        "logging must right-shift the delay peak ({plog} <= {pv})"
    );
}
