//! Mechanical service-time model.
//!
//! Every disk access advances a simulated clock by
//! `seek(distance) + rotational latency + bytes / streaming rate`.
//! The default parameter sets are calibrated against Table II of the paper
//! (Seagate ST1000DM003 HDD and ST5000AS0011 SMR drive):
//!
//! * sequential read/write throughput equals the table's MB/s directly,
//! * uniform random 4 KiB reads land at ≈66 IOPS (paper: 64–70),
//! * random 4 KiB writes hit the drive write cache (`write_cache_ns`),
//!   giving ≈140 IOPS on the HDD; on the fixed-band SMR layout the
//!   band read-modify-write charge added by [`crate::disk::Disk`]
//!   produces the paper's bimodal 5–140 IOPS range.

/// Parameters of the mechanical model. All times in nanoseconds, rates in
/// bytes per second.
#[derive(Clone, Copy, Debug)]
pub struct TimeModel {
    /// Total addressable capacity, used to normalise seek distance.
    pub(crate) capacity: u64,
    /// Track-to-track (minimum) seek time.
    min_seek_ns: u64,
    /// Full-stroke (maximum) seek time.
    max_seek_ns: u64,
    /// Average rotational latency added to every non-sequential access
    /// (half a revolution; 4.17 ms at 7200 rpm).
    pub(crate) rot_latency_ns: u64,
    /// Streaming read rate, bytes/second.
    pub(crate) read_bps: u64,
    /// Streaming write rate, bytes/second.
    pub(crate) write_bps: u64,
    /// If set, a non-sequential *write* is absorbed by the drive's
    /// write-back cache: it costs this flat latency instead of
    /// seek + rotation. Reads always pay the mechanical cost.
    write_cache_ns: Option<u64>,
}

impl TimeModel {
    /// Parameters matching the paper's 1 TB Seagate ST1000DM003 HDD
    /// (Table II: 169 MB/s seq read, 155 MB/s seq write, 64 IOPS random
    /// read, 143 IOPS random write).
    pub fn hdd_st1000dm003(capacity: u64) -> Self {
        TimeModel {
            capacity,
            min_seek_ns: 500_000,
            max_seek_ns: 16_000_000,
            rot_latency_ns: 4_170_000,
            read_bps: 169_000_000,
            write_bps: 155_000_000,
            write_cache_ns: Some(6_900_000),
        }
    }

    /// Parameters matching the Seagate ST5000AS0011 SMR drive
    /// (Table II: 165 MB/s seq read, 148 MB/s seq write, 70 IOPS random
    /// read; random writes range 5–140 IOPS depending on band state —
    /// the low end emerges from the band RMW charge, not from this model).
    pub fn smr_st5000as0011(capacity: u64) -> Self {
        TimeModel {
            capacity,
            min_seek_ns: 500_000,
            max_seek_ns: 14_000_000,
            rot_latency_ns: 4_170_000,
            read_bps: 165_000_000,
            write_bps: 148_000_000,
            write_cache_ns: Some(7_000_000),
        }
    }

    /// Seek time between two byte positions. Zero when the head is already
    /// there; otherwise the classical `min + (max-min) * sqrt(d/capacity)`
    /// short-stroke model.
    pub(crate) fn seek_ns(&self, from: u64, to: u64) -> u64 {
        if from == to {
            return 0;
        }
        let d = from.abs_diff(to) as f64 / self.capacity.max(1) as f64;
        self.min_seek_ns + ((self.max_seek_ns - self.min_seek_ns) as f64 * d.sqrt()) as u64
    }

    /// Pure transfer time for `len` bytes at `bps` bytes/second.
    pub(crate) fn xfer_ns(len: u64, bps: u64) -> u64 {
        // len / bps seconds, in ns, rounded up.
        ((len as u128 * 1_000_000_000).div_ceil(bps.max(1) as u128)) as u64
    }

    /// Service time for a read of `len` bytes at `offset` given the current
    /// head position. Returns `(time_ns, new_head_position)`.
    pub(crate) fn read_time(&self, head: u64, offset: u64, len: u64) -> (u64, u64) {
        let mut t = 0;
        if head != offset {
            t += self.seek_ns(head, offset) + self.rot_latency_ns;
        }
        t += Self::xfer_ns(len, self.read_bps);
        (t, offset + len)
    }

    /// Service time for a write of `len` bytes at `offset` given the current
    /// head position. Returns `(time_ns, new_head_position)`.
    pub(crate) fn write_time(&self, head: u64, offset: u64, len: u64) -> (u64, u64) {
        let mut t = 0;
        if head != offset {
            t += match self.write_cache_ns {
                Some(c) => c,
                None => self.seek_ns(head, offset) + self.rot_latency_ns,
            };
        }
        t += Self::xfer_ns(len, self.write_bps);
        (t, offset + len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn sequential_transfer_matches_rate() {
        let m = TimeModel::hdd_st1000dm003(1000 * GB);
        // 169 MB in one second.
        let t = TimeModel::xfer_ns(169_000_000, m.read_bps);
        assert_eq!(t, 1_000_000_000);
    }

    #[test]
    fn seek_zero_when_sequential() {
        let m = TimeModel::hdd_st1000dm003(1000 * GB);
        assert_eq!(m.seek_ns(42, 42), 0);
        let (t, pos) = m.read_time(100, 100, 1000);
        assert_eq!(pos, 1100);
        assert_eq!(t, TimeModel::xfer_ns(1000, m.read_bps));
    }

    #[test]
    fn seek_grows_with_distance() {
        let m = TimeModel::hdd_st1000dm003(1000 * GB);
        let near = m.seek_ns(0, GB);
        let far = m.seek_ns(0, 900 * GB);
        assert!(near < far);
        assert!(near >= m.min_seek_ns);
        assert!(far <= m.max_seek_ns);
    }

    #[test]
    fn random_read_iops_in_table2_range() {
        // Uniform random 4 KiB reads over the whole disk should land in
        // the 60-75 IOPS window of Table II.
        let m = TimeModel::hdd_st1000dm003(1000 * GB);
        let mut total = 0u64;
        let n = 1000u64;
        let mut head = 0;
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let off = state % (1000 * GB);
            let (t, p) = m.read_time(head, off, 4096);
            total += t;
            head = p;
        }
        let iops = n as f64 / (total as f64 / 1e9);
        assert!((55.0..80.0).contains(&iops), "iops = {iops}");
    }

    #[test]
    fn random_write_iops_hits_write_cache() {
        let m = TimeModel::hdd_st1000dm003(1000 * GB);
        let (t, _) = m.write_time(0, 500 * GB, 4096);
        let iops = 1e9 / t as f64;
        assert!((120.0..160.0).contains(&iops), "iops = {iops}");
    }
}
