//! Settings that used to be clamped silently are rejected when the
//! object is built: a hash ring without virtual nodes, an autoscaler
//! interval that is not finite and positive, and a RoSA density outside
//! `[0, 1]`.

use dz_gpusim::{ModelShape, NodeSpec};
use dz_serve::{
    Autoscaler, ChaosConfig, ClusterConfig, ClusterSim, ConsistentHashRouter, CostModel,
    RoundRobinRouter, VariantSpec,
};

#[test]
#[should_panic(expected = "needs a vnode")]
fn hash_ring_without_virtual_nodes_is_rejected() {
    ConsistentHashRouter::new(0);
}

#[test]
#[should_panic(expected = "RoSA density NaN must lie in [0, 1]")]
fn rosa_density_outside_unit_interval_is_rejected() {
    VariantSpec::rosa(16, f64::NAN);
}

fn scaler_every(interval_s: f64) -> Autoscaler {
    Autoscaler {
        interval_s,
        ..Autoscaler::new(1, 2)
    }
}

#[test]
#[should_panic(expected = "autoscaler interval_s 0 must be finite and positive")]
fn cluster_zero_autoscaler_interval_is_rejected() {
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let sim = ClusterSim::new(
        vec![cost; 2],
        ClusterConfig::replicas(2),
        Box::new(RoundRobinRouter::new()),
    );
    let _ = sim.with_chaos(ChaosConfig {
        autoscaler: Some(scaler_every(0.0)),
        ..ChaosConfig::default()
    });
}
