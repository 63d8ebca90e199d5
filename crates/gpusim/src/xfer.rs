//! Data-movement timing: disk, host memory, and PCIe.

use crate::spec::{NodeSpec, StorageKind};

/// Where a payload currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// On disk (NVMe or NFS per the node spec).
    Disk,
    /// In host DRAM.
    Host,
    /// In GPU HBM.
    Device,
}

/// Solo seconds of disk-channel work for `bytes` (no latency head): the
/// unit a bandwidth-shared transfer timeline divides among concurrent
/// loads on the disk link.
pub fn disk_channel_s(storage: StorageKind, bytes: f64) -> f64 {
    bytes / (storage.read_gbps() * 1e9)
}

/// Solo seconds of PCIe-channel work for `bytes` (no setup head): the
/// unit a bandwidth-shared transfer timeline divides among concurrent
/// loads on the host→device link.
pub fn pcie_channel_s(node: &NodeSpec, bytes: f64) -> f64 {
    bytes / (node.gpu.pcie_gbps * 1e9)
}

/// Time to copy `bytes` from host memory to one GPU.
pub fn host_to_device_s(node: &NodeSpec, bytes: f64) -> f64 {
    20e-6 + pcie_channel_s(node, bytes)
}

/// Time to bring `bytes` from `from` to GPU memory (pipelining the two hops
/// at the slower bandwidth when starting from disk).
// dz-lint: allow(dead-pub, "closed-form transfer time the load-profile solo times are tested against")
pub fn load_to_device_s(node: &NodeSpec, from: Tier, bytes: f64) -> f64 {
    match from {
        Tier::Device => 0.0,
        Tier::Host => host_to_device_s(node, bytes),
        Tier::Disk => {
            let disk_bw = node.storage.read_gbps() * 1e9;
            let pcie_bw = node.gpu.pcie_gbps * 1e9;
            // Staged copy is pipelined; the slower link dominates.
            node.storage.latency_s() + 20e-6 + bytes / disk_bw.min(pcie_bw)
        }
    }
}

/// Effect of the lossless stage on a disk load: fewer bytes cross the disk
/// link, decompression runs at `decomp_gbps` on the GPU (GDeflate-style).
///
/// Returns the end-to-end time for loading `raw_bytes` whose compressed
/// form is `compressed_bytes`.
// dz-lint: allow(dead-pub, "the GPU-decompression load model whose crossover the transfer tests pin")
pub fn load_compressed_s(
    node: &NodeSpec,
    raw_bytes: f64,
    compressed_bytes: f64,
    decomp_gbps: f64,
) -> f64 {
    let disk_bw = node.storage.read_gbps() * 1e9;
    let pcie_bw = node.gpu.pcie_gbps * 1e9;
    let io = node.storage.latency_s() + 20e-6 + compressed_bytes / disk_bw.min(pcie_bw);
    let decomp = raw_bytes / (decomp_gbps * 1e9);
    // I/O and GPU decompression pipeline; the slower stage dominates.
    io.max(decomp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    #[test]
    fn tiers_are_ordered_by_cost() {
        let node = NodeSpec::a800_node(4);
        let bytes = 1e9;
        let from_disk = load_to_device_s(&node, Tier::Disk, bytes);
        let from_host = load_to_device_s(&node, Tier::Host, bytes);
        let resident = load_to_device_s(&node, Tier::Device, bytes);
        assert!(from_disk > from_host);
        assert!(from_host > resident);
        assert_eq!(resident, 0.0);
    }

    #[test]
    fn compressed_load_wins_when_disk_is_slow() {
        // NFS-backed node: halving the bytes on the wire beats the
        // decompression cost (the paper's Step 4 rationale).
        let mut node = NodeSpec::a800_node(4);
        node.storage = StorageKind::Nfs;
        let raw = 10e9;
        let plain = load_to_device_s(&node, Tier::Disk, raw);
        let compressed = load_compressed_s(&node, raw, raw / 2.0, 60.0);
        assert!(compressed < plain, "{compressed} vs {plain}");
    }

    #[test]
    fn compressed_load_can_lose_when_decompression_dominates() {
        // Fast NVMe + slow decompressor: lossless is not worth it, exactly
        // the caveat the paper notes.
        let node = NodeSpec::a800_node(4);
        let raw = 10e9;
        let plain = load_to_device_s(&node, Tier::Disk, raw);
        let compressed = load_compressed_s(&node, raw, raw * 0.9, 2.0);
        assert!(compressed > plain, "{compressed} vs {plain}");
    }

    #[test]
    fn channel_work_decomposes_the_pipelined_disk_load() {
        // The pipelined disk→device path is the latency heads plus the
        // slower of the two channel-work terms — the decomposition the
        // swap timeline's bandwidth sharing operates on.
        let node = NodeSpec::a800_node(2);
        let bytes = 3e9;
        let want = node.storage.latency_s()
            + 20e-6
            + disk_channel_s(node.storage, bytes).max(pcie_channel_s(&node, bytes));
        let got = load_to_device_s(&node, Tier::Disk, bytes);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn transfer_scales_linearly() {
        let node = NodeSpec::rtx3090_node(1);
        let t1 = host_to_device_s(&node, 1e9);
        let t2 = host_to_device_s(&node, 2e9);
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
    }
}
