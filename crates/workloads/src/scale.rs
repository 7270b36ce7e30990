//! Workload size presets.
//!
//! The paper runs each microbenchmark for ~65,535 iterations, extracts the
//! Linux 3.0 kernel, and builds it (~1.2 M file system operations, §5.2).
//! A single-CPU reproduction runs every simulated process as a thread, so the
//! default sizes are scaled down while preserving each workload's *shape*
//! (op mix, sharing pattern, tree fan-out). `Scale::quick` is for tests;
//! `Scale::bench` for figure regeneration.

/// Size knobs for all thirteen workloads.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Per-process iterations for the microbenchmarks
    /// (creates/writes/renames/directories).
    pub iters: usize,
    /// Bytes written per `writes` iteration.
    pub write_chunk: usize,
    /// Dense tree: top-level directories.
    pub dense_top: usize,
    /// Dense tree: sub-levels below each top directory.
    pub dense_levels: usize,
    /// Dense tree: directories per sub-level.
    pub dense_dirs: usize,
    /// Dense tree: files per sub-level.
    pub dense_files: usize,
    /// Sparse tree: chain depth (paper: 14 levels, 2 subdirs per level).
    pub sparse_levels: usize,
    /// Archive size for `extract`, in 4 KiB records.
    pub archive_records: usize,
    /// `punzip`: files extracted per copy.
    pub punzip_files: usize,
    /// `mailbench`: messages delivered per process.
    pub mail_msgs: usize,
    /// `fsstress`: random operations per process.
    pub fsstress_ops: usize,
    /// `build linux`: compilation units.
    pub kbuild_units: usize,
    /// `build linux`: source directories.
    pub kbuild_dirs: usize,
    /// `build linux`: headers in `include/`.
    pub kbuild_headers: usize,
    /// `build linux`: virtual cycles one `cc` invocation burns.
    pub cc_cycles: u64,
}

impl Scale {
    /// Sizes for unit/integration tests (seconds of wall time).
    pub fn quick() -> Scale {
        Scale {
            iters: 24,
            write_chunk: 4096,
            dense_top: 2,
            dense_levels: 1,
            dense_dirs: 2,
            dense_files: 12,
            sparse_levels: 5,
            archive_records: 24,
            punzip_files: 10,
            mail_msgs: 12,
            fsstress_ops: 60,
            kbuild_units: 8,
            kbuild_dirs: 2,
            kbuild_headers: 4,
            cc_cycles: 200_000,
        }
    }

    /// Sizes for figure regeneration (minutes of wall time for the whole
    /// matrix). Iteration counts are large enough to amortize process
    /// startup, as the paper's 65,535-iteration runs do.
    pub fn bench() -> Scale {
        Scale {
            iters: 600,
            write_chunk: 4096,
            dense_top: 2,
            dense_levels: 2,
            dense_dirs: 3,
            dense_files: 100,
            sparse_levels: 12,
            archive_records: 400,
            punzip_files: 80,
            mail_msgs: 150,
            fsstress_ops: 600,
            kbuild_units: 120,
            kbuild_dirs: 8,
            kbuild_headers: 12,
            cc_cycles: 2_000_000,
        }
    }

    /// Sizes for the scheduled full-scale CI lane: closer to the paper's
    /// 65,535-iteration runs than `bench`, sized so the nightly matrix at
    /// 64 cores finishes in tens of minutes rather than hours. Tree and
    /// build shapes stay at `bench` proportions — only the amortizable
    /// iteration counts grow.
    pub fn full() -> Scale {
        Scale {
            iters: 4_000,
            mail_msgs: 1_000,
            fsstress_ops: 4_000,
            kbuild_units: 400,
            ..Scale::bench()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_bench() {
        let q = Scale::quick();
        let b = Scale::bench();
        assert!(q.iters < b.iters);
        assert!(q.fsstress_ops < b.fsstress_ops);
        assert!(q.kbuild_units < b.kbuild_units);
    }

    #[test]
    fn full_is_larger_than_bench() {
        let b = Scale::bench();
        let f = Scale::full();
        assert!(f.iters > b.iters);
        assert!(f.mail_msgs > b.mail_msgs);
        assert_eq!(f.dense_files, b.dense_files, "tree shape stays at bench");
    }
}
