//! Property tests for the provenance-list interner and the Table-I
//! propagation semantics — the invariants whole-system DIFT correctness
//! rests on.
//!
//! Runs on the in-tree deterministic harness (`faros_support::prop`) with
//! the pinned default seed; set `FAROS_PROP_SEED` to explore other streams.

use faros_taint::arb::prov_tag as tag;
use faros_support::prop::{check, Config, Rng};
use faros_support::{prop_assert, prop_assert_eq};
use faros_taint::engine::{PropagationMode, TaintEngine};
use faros_taint::provlist::{ListId, ProvInterner};
use faros_taint::shadow::ShadowAddr;
use faros_taint::tag::{ProvTag, TagKind};
use std::collections::HashMap;

fn tag_vec(rng: &mut Rng, max: usize) -> Vec<ProvTag> {
    rng.vec_of(0, max, tag)
}

fn build_list(interner: &mut ProvInterner, tags: &[ProvTag]) -> ListId {
    tags.iter().fold(ListId::EMPTY, |acc, &t| interner.append(acc, t))
}

#[test]
fn append_preserves_order_and_collapses_consecutive_dups() {
    check(
        "append_preserves_order_and_collapses_consecutive_dups",
        Config::default(),
        |rng| tag_vec(rng, 24),
        |tags| {
            let mut interner = ProvInterner::new();
            let id = build_list(&mut interner, tags);
            // Expected: the input with consecutive duplicates collapsed.
            let mut expected: Vec<ProvTag> = Vec::new();
            for &t in tags {
                if expected.last() != Some(&t) {
                    expected.push(t);
                }
            }
            prop_assert_eq!(interner.tags(id), expected.as_slice());
            Ok(())
        },
    );
}

#[test]
fn interning_is_canonical() {
    check(
        "interning_is_canonical",
        Config::default(),
        |rng| tag_vec(rng, 16),
        |tags| {
            // Building the same history twice yields the same id (structural
            // sharing), even through an unrelated interleaved build.
            let mut interner = ProvInterner::new();
            let a = build_list(&mut interner, tags);
            let _noise = build_list(&mut interner, &[ProvTag::EXPORT_TABLE]);
            let b = build_list(&mut interner, tags);
            prop_assert_eq!(a, b);
            Ok(())
        },
    );
}

#[test]
fn union_is_idempotent_and_empty_is_identity() {
    check(
        "union_is_idempotent_and_empty_is_identity",
        Config::default(),
        |rng| (tag_vec(rng, 12), tag_vec(rng, 12)),
        |(tags_a, tags_b)| {
            let mut interner = ProvInterner::new();
            let a = build_list(&mut interner, tags_a);
            let b = build_list(&mut interner, tags_b);
            prop_assert_eq!(interner.union(a, a), a);
            prop_assert_eq!(interner.union(a, ListId::EMPTY), a);
            prop_assert_eq!(interner.union(ListId::EMPTY, b), b);
            // Union is associative-in-content for the tag *set*.
            let ab = interner.union(a, b);
            let ab_again = interner.union(ab, b);
            prop_assert_eq!(ab, ab_again, "absorbing: (a ∪ b) ∪ b == a ∪ b");
            Ok(())
        },
    );
}

#[test]
fn union_contains_all_source_tags() {
    check(
        "union_contains_all_source_tags",
        Config::default(),
        |rng| (tag_vec(rng, 12), tag_vec(rng, 12)),
        |(tags_a, tags_b)| {
            let mut interner = ProvInterner::new();
            let a = build_list(&mut interner, tags_a);
            let b = build_list(&mut interner, tags_b);
            let u = interner.union(a, b);
            for &t in tags_a.iter().chain(tags_b.iter()) {
                prop_assert!(interner.contains(u, t));
            }
            // And nothing else.
            for t in interner.tags(u) {
                prop_assert!(tags_a.contains(&t) || tags_b.contains(&t));
            }
            Ok(())
        },
    );
}

/// The flat intern table the parent-linked interner replaced: every list
/// stored whole and keyed by its content. It is the reference for list
/// contents *and* for id numbering.
#[derive(Default)]
struct FlatInterner {
    lists: Vec<Vec<ProvTag>>,
    by_content: HashMap<Vec<ProvTag>, u32>,
}

impl FlatInterner {
    fn new() -> FlatInterner {
        let mut flat = FlatInterner::default();
        flat.intern(Vec::new());
        flat
    }

    fn intern(&mut self, content: Vec<ProvTag>) -> u32 {
        if let Some(&id) = self.by_content.get(&content) {
            return id;
        }
        let id = self.lists.len() as u32;
        self.by_content.insert(content.clone(), id);
        self.lists.push(content);
        id
    }

    fn append(&mut self, id: u32, tag: ProvTag) -> u32 {
        let old = &self.lists[id as usize];
        if old.last() == Some(&tag) {
            return id;
        }
        let mut content = old.clone();
        content.push(tag);
        self.intern(content)
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b || b == 0 {
            return a;
        }
        if a == 0 {
            return b;
        }
        let mut content = self.lists[a as usize].clone();
        for &tag in &self.lists[b as usize] {
            if !content.contains(&tag) {
                content.push(tag);
            }
        }
        self.intern(content)
    }
}

/// A tag from a deliberately tiny domain, so random histories share
/// prefixes and unions find most tags already present.
fn small_tag(rng: &mut Rng) -> ProvTag {
    ProvTag::new(*rng.pick(&TagKind::ALL[..3]), rng.range_u32(0, 3) as u16)
}

#[test]
fn interner_matches_flat_oracle() {
    check(
        "interner_matches_flat_oracle",
        Config::default(),
        |rng| {
            // (is_union, left pick, right pick, tag): picks index the ids
            // returned so far, modulo their count.
            let op = |rng: &mut Rng| {
                let t = if rng.next_bool() { small_tag(rng) } else { tag(rng) };
                (rng.below(3) == 0, rng.next_u32(), rng.next_u32(), t)
            };
            rng.vec_of(0, 64, op)
        },
        |ops| {
            let mut interner = ProvInterner::new();
            let mut flat = FlatInterner::new();
            // `ids[k]` is the interner's id for the oracle's list `k`.
            let mut ids = vec![ListId::EMPTY];
            for &(is_union, x, y, t) in ops {
                let ra = x % ids.len() as u32;
                let rb = y % ids.len() as u32;
                let (a, b) = (ids[ra as usize], ids[rb as usize]);
                let (got, want) = if is_union {
                    (interner.union(a, b), flat.union(ra, rb))
                } else {
                    (interner.append(a, t), flat.append(ra, t))
                };
                prop_assert_eq!(got.to_string(), format!("prov[{want}]"), "returned id");
                if want as usize == ids.len() {
                    ids.push(got);
                }
                let content = &flat.lists[want as usize];
                prop_assert_eq!(&interner.tags(got), content);
                prop_assert_eq!(interner.head(got), content.last().copied());
                prop_assert_eq!(interner.len(), flat.lists.len());
                for kind in TagKind::ALL {
                    prop_assert_eq!(
                        interner.contains_kind(got, kind),
                        content.iter().any(|t| t.kind() == kind)
                    );
                    let newest_first: Vec<ProvTag> =
                        content.iter().rev().copied().filter(|t| t.kind() == kind).collect();
                    prop_assert_eq!(
                        interner.tags_of_kind(got, kind).collect::<Vec<_>>(),
                        newest_first
                    );
                }
                prop_assert_eq!(interner.contains(got, t), content.contains(&t));
            }
            Ok(())
        },
    );
}

#[test]
fn copy_moves_shadow_exactly() {
    check(
        "copy_moves_shadow_exactly",
        Config::default(),
        |rng| {
            (
                rng.vec_of(1, 8, tag),
                rng.range_u32(0, 1000),
                rng.range_u32(1000, 2000),
            )
        },
        |(tags, src, dst)| {
            let mut engine = TaintEngine::new(PropagationMode::direct_only());
            for (i, &t) in tags.iter().enumerate() {
                engine.append_tag(ShadowAddr::Mem(src + i as u32), t);
            }
            let n = tags.len() as u8;
            engine.copy(ShadowAddr::Mem(*dst), ShadowAddr::Mem(*src), n);
            for i in 0..n {
                prop_assert_eq!(
                    engine.prov_id(ShadowAddr::Mem(dst + u32::from(i))),
                    engine.prov_id(ShadowAddr::Mem(src + u32::from(i))),
                );
            }
            Ok(())
        },
    );
}

#[test]
fn delete_always_clears() {
    check(
        "delete_always_clears",
        Config::default(),
        |rng| (tag_vec(rng, 8), rng.range_u32(0, 10_000)),
        |(tags, addr)| {
            let mut engine = TaintEngine::new(PropagationMode::direct_only());
            for &t in tags {
                engine.append_tag(ShadowAddr::Mem(*addr), t);
            }
            engine.delete(ShadowAddr::Mem(*addr), 1);
            prop_assert!(engine.prov_id(ShadowAddr::Mem(*addr)).is_empty());
            prop_assert_eq!(engine.shadow().tainted_mem_bytes(), 0);
            Ok(())
        },
    );
}

#[test]
fn tag_wire_format_round_trips() {
    check("tag_wire_format_round_trips", Config::default(), tag, |tag| {
        prop_assert_eq!(ProvTag::from_bytes(tag.to_bytes()), Some(*tag));
        Ok(())
    });
}

/// §VI-D discusses exhausting FAROS' memory with "a great amount of tagged
/// data". Interning bounds the damage: a workload that moves the same few
/// tags around millions of times creates only a handful of distinct lists.
#[test]
fn interning_bounds_memory_under_repetitive_propagation() {
    use faros_taint::tag::NetflowTag;
    let mut engine = TaintEngine::new(PropagationMode::direct_only());
    let nf = engine
        .tables_mut()
        .intern_netflow(NetflowTag {
            src_ip: [1, 1, 1, 1],
            src_port: 1,
            dst_ip: [2, 2, 2, 2],
            dst_port: 2,
        })
        .unwrap();
    let p1 = engine.tables_mut().intern_process(0x2000, "a.exe").unwrap();
    let p2 = engine.tables_mut().intern_process(0x3000, "b.exe").unwrap();
    engine.label_range_fresh(0, 4096, nf);
    // 100k propagation steps shuffling the same provenance shapes around.
    for round in 0..25u32 {
        for i in 0..4096u32 {
            let src = ShadowAddr::Mem(i);
            let dst = ShadowAddr::Mem(0x10_0000 + i);
            engine.copy(dst, src, 1);
            engine.append_tag(dst, if round % 2 == 0 { p1 } else { p2 });
        }
    }
    assert!(
        engine.interner().len() < 64,
        "interner must stay bounded: {} lists",
        engine.interner().len()
    );
    assert_eq!(engine.shadow().tainted_mem_bytes(), 2 * 4096);
}
