//! Operational statistics exposed by the store, used by the provenance store's monitoring and
//! by the benchmark harness to report backend behaviour alongside figure reproductions.

/// A snapshot of store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Number of live keys.
    pub live_keys: u64,
    /// Approximate bytes of live key+value data.
    pub live_bytes: u64,
    /// Total bytes appended to the log since open (including garbage).
    pub appended_bytes: u64,
    /// Number of put operations since open.
    pub puts: u64,
    /// Number of delete operations since open.
    pub deletes: u64,
    /// Number of get operations since open.
    pub gets: u64,
    /// Number of gets served without reading the log: from the value cache, or from the index
    /// for an empty value.
    pub cache_hits: u64,
    /// Bytes the value cache charges against its budget.
    pub cache_bytes: u64,
    /// Number of values in the value cache.
    pub cache_entries: u64,
    /// Heap bytes the key index holds (see [`crate::index::KeyIndex::heap_bytes`]).
    pub index_bytes: u64,
    /// Number of compactions performed since open.
    pub compactions: u64,
    /// Number of segment files currently on disk.
    pub segments: u64,
}

impl DbStats {
    /// Cache hit ratio over all gets (0.0 when no gets have been issued).
    #[cfg(test)]
    pub(crate) fn cache_hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.gets as f64
        }
    }

    /// Rough fraction of the appended log that is garbage (superseded or deleted records).
    pub fn garbage_ratio(&self) -> f64 {
        if self.appended_bytes == 0 {
            0.0
        } else {
            let live = self.live_bytes.min(self.appended_bytes);
            1.0 - live as f64 / self.appended_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = DbStats::default();
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.garbage_ratio(), 0.0);
    }

    #[test]
    fn cache_hit_ratio() {
        let s = DbStats {
            gets: 10,
            cache_hits: 7,
            ..Default::default()
        };
        assert!((s.cache_hit_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn garbage_ratio_clamps_live_bytes() {
        let s = DbStats {
            appended_bytes: 100,
            live_bytes: 150,
            ..Default::default()
        };
        assert_eq!(s.garbage_ratio(), 0.0);
        let s = DbStats {
            appended_bytes: 100,
            live_bytes: 25,
            ..Default::default()
        };
        assert!((s.garbage_ratio() - 0.75).abs() < 1e-12);
    }
}
