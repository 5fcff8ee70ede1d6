//! Physical-layout trace recording, used to regenerate the paper's data
//! layout figures (Fig. 2 and Fig. 11: SSTable/set placement per
//! compaction) and Fig. 13 (dynamic band layout).

use crate::extent::Extent;
use crate::stats::IoKind;

/// Direction of a traced access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDir {
    /// A host read.
    Read,
    /// A host write.
    Write,
    /// A free/invalidate of previously written space.
    Free,
}

/// One traced physical access. `tag` groups events (the figure harnesses
/// use the compaction sequence number); `file` identifies the SSTable.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Grouping tag (compaction id in the layout figures).
    pub tag: u64,
    /// File (SSTable) id, or 0 when not applicable.
    pub file: u64,
    /// Physical extent accessed.
    pub ext: Extent,
    /// Read, write or free.
    pub dir: TraceDir,
    /// I/O classification (layout figures filter on flush/compaction).
    pub kind: IoKind,
}

/// An append-only recorder of physical accesses. Disabled by default so
/// the hot path pays only a branch.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// Creates a disabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one event if enabled.
    pub fn record(&mut self, tag: u64, file: u64, ext: Extent, dir: TraceDir, kind: IoKind) {
        if self.enabled {
            self.events.push(TraceEvent {
                tag,
                file,
                ext,
                dir,
                kind,
            });
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drops all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = TraceRecorder::new();
        t.record(1, 2, Extent::new(0, 10), TraceDir::Write, IoKind::Raw);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_records_and_filters() {
        let mut t = TraceRecorder::new();
        t.set_enabled(true);
        t.record(1, 10, Extent::new(0, 10), TraceDir::Write, IoKind::Flush);
        t.record(1, 11, Extent::new(10, 10), TraceDir::Read, IoKind::Get);
        t.record(
            2,
            12,
            Extent::new(20, 10),
            TraceDir::Write,
            IoKind::CompactionWrite,
        );
        assert_eq!(t.events().len(), 3);
        let w1: Vec<_> = t
            .events()
            .iter()
            .filter(|e| e.tag == 1 && e.dir == TraceDir::Write)
            .collect();
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].file, 10);
        t.clear();
        assert!(t.events().is_empty());
    }
}
