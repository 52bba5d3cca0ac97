//! Model-based property test for the Masstree layer.

use std::collections::BTreeMap;

use masstree::Masstree;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Cas(u64, u64, u64),
    Range(u64, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..300, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..300).prop_map(Op::Remove),
            (0u64..300).prop_map(Op::Get),
            (0u64..300, 0u64..5, 0u64..5).prop_map(|(k, o, n)| Op::Cas(k, o, n)),
            (0u64..300, 0u64..100).prop_map(|(lo, span)| Op::Range(lo, lo + span)),
        ],
        1..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn matches_btreemap(script in ops()) {
        let t = Masstree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &script {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(t.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(t.remove(k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(t.get(k), model.get(&k).copied());
                }
                Op::Cas(k, o, n) => {
                    let expect = model.get(&k) == Some(&o);
                    prop_assert_eq!(t.cas(k, o, n), expect);
                    if expect {
                        model.insert(k, n);
                    }
                }
                Op::Range(lo, hi) => {
                    let mut got = Vec::new();
                    t.range(lo, hi, &mut |k, v| { got.push((k, v)); true });
                    let expect: Vec<(u64, u64)> =
                        model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(t.len(), model.len());
        }
    }
}
