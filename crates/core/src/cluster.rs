//! Machine and cluster descriptions.
//!
//! The paper's testbed is 100 homogeneous AWS m4.2xlarge instances
//! (8 vCPUs, 32 GB RAM, 1.1 Gbps NIC) with a server and a worker
//! co-located on every instance (§V-B). We model the cluster as a set of
//! identical machines; heterogeneity is out of scope for the paper and
//! for this reproduction.

use std::fmt;

/// Unique identifier of a cluster machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(u32);

impl MachineId {
    /// Wraps a raw machine number.
    pub fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw machine number.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u32> for MachineId {
    fn from(raw: u32) -> Self {
        Self::new(raw)
    }
}

/// Hardware description of a single machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of CPU cores.
    pub cores: u32,
    /// Main-memory capacity in bytes.
    pub memory_bytes: u64,
    /// Network bandwidth in bytes per second.
    pub network_bytes_per_sec: f64,
    /// Disk (spill) bandwidth in bytes per second.
    pub disk_bytes_per_sec: f64,
}

impl MachineSpec {
    /// The paper's AWS m4.2xlarge instance: 8 vCPUs, 32 GB memory,
    /// 1.1 Gbps network, and EBS-like ~120 MB/s disk bandwidth.
    pub fn m4_2xlarge() -> Self {
        Self {
            cores: 8,
            memory_bytes: 32 << 30,
            network_bytes_per_sec: 1.1e9 / 8.0,
            disk_bytes_per_sec: 120.0 * (1 << 20) as f64,
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::m4_2xlarge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m4_2xlarge_matches_paper() {
        let m = MachineSpec::m4_2xlarge();
        assert_eq!(m.cores, 8);
        assert_eq!(m.memory_bytes, 32 << 30);
        // 1.1 Gbps in bytes/s.
        assert!((m.network_bytes_per_sec - 137_500_000.0).abs() < 1.0);
    }

    #[test]
    fn machine_id_display() {
        assert_eq!(MachineId::new(12).to_string(), "M12");
        let m: MachineId = 3u32.into();
        assert_eq!(m.index(), 3);
    }
}
