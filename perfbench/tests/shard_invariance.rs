//! The multi-shard workloads' committed reference digests are taken at 1
//! shard; that only works while their reports do not depend on the shard
//! count.

use whatsup_perfbench::measure;
use whatsup_perfbench::workload::{self, Kind, Size};

#[test]
fn multi_shard_workloads_report_as_at_one_shard() {
    for kind in [Kind::Shard5k, Kind::ChurnFlash] {
        let two = measure::one_simulation(&workload::inputs(kind, 3, Size::Small), 3);
        let one =
            measure::one_simulation(&workload::inputs(kind, 3, Size::Small).with_shards(1), 3);
        assert!(two.problems.is_empty(), "{kind:?}: {:?}", two.problems);
        assert_eq!(two.digest, one.digest, "{kind:?}");
    }
}
