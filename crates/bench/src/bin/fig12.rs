//! Figure 12 — Component interaction at the application server S4 of
//! the Rubbis group across cases 1-4: normalized in/out flow frequencies
//! and the χ² values against case 1.

use flowdiff::config::CHI2_THRESHOLD;
use flowdiff::prelude::*;
use flowdiff::stats::chi_squared;
use flowdiff_bench::{capture_case, print_table, table2_cases};
use workloads::prelude::Lab;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    println!("Figure 12 - component interaction at node S4, cases 1-4\n");

    let s4 = lab.ip("S4");
    let mut interactions = Vec::new();
    let mut rows = Vec::new();
    for (ci, (case, apps)) in table2_cases().iter().take(4).enumerate() {
        let log = capture_case(&lab, apps, 80 + ci as u64, 60, 10.0);
        let model = BehaviorModel::build(&log, &config);
        let g = model.group_of(s4).expect("rubbis group contains S4");
        let ni = g
            .interaction
            .per_node
            .get(&s4)
            .expect("S4 has interactions");

        // The paper's bars: normalized in-flow vs out-flow frequency at
        // S4. The web server feeding S4 differs across cases, so the
        // comparison is over the in/out *shape*, not edge identities.
        let mut in_count = 0.0;
        let mut out_count = 0.0;
        for (edge, c) in &ni.edge_counts {
            if edge.dst == s4 {
                in_count += *c as f64;
            } else {
                out_count += *c as f64;
            }
        }
        let total = in_count + out_count;
        interactions.push([in_count, out_count]);
        rows.push(vec![
            case.to_string(),
            format!("{:.3}", in_count / total),
            format!("{:.3}", out_count / total),
            String::new(), // chi2 filled below
        ]);
    }

    // χ² of each case against case 1 (the paper's expected values).
    let mut chi2s = Vec::new();
    for (i, row) in rows.iter_mut().enumerate() {
        let chi2 = chi_squared(&interactions[i], &interactions[0]);
        chi2s.push(chi2);
        row[3] = format!("{chi2:.6}");
    }

    print_table(
        &["Case", "in (S13->S4)", "out (S4->S14)", "chi2 vs case 1"],
        &rows,
    );

    println!("\npaper: normalized frequencies barely vary; chi2 values ~1e-3..1e-9");
    let threshold = CHI2_THRESHOLD;
    assert!(
        chi2s.iter().all(|c| *c < threshold),
        "no case should cross the chi2 alarm threshold ({threshold}): {chi2s:?}"
    );
    // without connection reuse the web->app and app->db counts track 1:1
    for row in &rows {
        let inf: f64 = row[1].parse().unwrap();
        assert!((0.3..0.7).contains(&inf), "in-fraction should be ~0.5");
    }
}
