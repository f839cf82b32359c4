//! Lattice-law property tests for the capability analysis
//! (`analyze::syscap`), driven by the deterministic `faros-support`
//! property harness.
//!
//! The capability machinery rests on three lattices, each with laws the
//! cross-check silently relies on:
//!
//! * `CapSet` — the powerset lattice of the 13 capabilities; `union`
//!   must be a real join (commutative, associative, idempotent, `EMPTY`
//!   identity) with `contains_all` as the induced order;
//! * `AVal` — the VSA value domain syscall sites are lifted from; its
//!   join must be a sound upper bound and the widening rule must cut
//!   every ascending chain after a bounded number of changes;
//! * the interprocedural summaries — `summarize` must compute exactly
//!   the reachable-local join (a least fixpoint), with every callee that
//!   has no summary of its own contributing exactly the given unknown
//!   value, and be monotone: growing a local value never shrinks any
//!   summary. Both instantiations are checked, capability sets and the
//!   taint phases' `u8` source masks.
//!
//! On top of the lattices, the abstract lifting `caps_of_syscall` must
//! agree with the replay-side `concrete_capability` on singletons and be
//! monotone in its arguments (coarsening an argument never removes a
//! capability) — the two facts that make "exercised but statically
//! impossible" a sound alert.

use faros_analyze::syscap::{caps_of_syscall, summarize};
use faros_analyze::vsa::{AVal, StridedInterval};
use faros_kernel::nt::Sysno;
use faros_replay::syscap::{concrete_capability, CapSet, Capability};
use faros_support::prop::{check, Config, Rng};
use faros_support::{prop_assert, prop_assert_eq};
use std::collections::{BTreeMap, BTreeSet};

/// Decodes a `u16` bitmask into a capability set (bit i = `ALL[i]`).
fn capset(mask: u16) -> CapSet {
    Capability::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| c)
        .collect()
}

/// Decodes an encoded tuple into an `AVal`. Strided intervals are kept
/// small enough that `enumerate()` always succeeds, so the soundness
/// checks below can test exact membership.
fn aval((tag, lo, span, stride): (u8, u32, u32, u32)) -> AVal {
    match tag % 4 {
        0 => AVal::Bot,
        1 => {
            let lo = lo % 0x1_0000;
            AVal::Si(StridedInterval::new((stride % 8).max(1), lo, lo + span % 48))
        }
        2 => AVal::Sp((lo % 128) as i32 - 64),
        _ => AVal::Top,
    }
}

fn arb_aval_code(rng: &mut Rng) -> (u8, u32, u32, u32) {
    (rng.next_u8(), rng.next_u32(), rng.next_u32(), rng.next_u32())
}

/// `true` when every concrete value of `small` is covered by `big`
/// (the abstract order `small ⊑ big`), checked by exact enumeration.
fn covers(big: &AVal, small: &AVal) -> bool {
    match (big, small) {
        (_, AVal::Bot) => true,
        (AVal::Top, _) => true,
        (AVal::Sp(a), AVal::Sp(b)) => a == b,
        (AVal::Si(b), AVal::Si(s)) => {
            s.enumerate().expect("generated intervals enumerate").iter().all(|&v| b.contains(v))
        }
        _ => false,
    }
}

#[test]
fn capset_union_is_a_join() {
    check(
        "capset union laws",
        Config::default(),
        |rng: &mut Rng| (rng.next_u32() as u16, rng.next_u32() as u16, rng.next_u32() as u16),
        |&(ma, mb, mc)| {
            let (a, b, c) = (capset(ma), capset(mb), capset(mc));
            prop_assert_eq!(a.union(b), b.union(a), "union must commute");
            prop_assert_eq!(a.union(b).union(c), a.union(b.union(c)), "union must associate");
            prop_assert_eq!(a.union(a), a, "union must be idempotent");
            prop_assert_eq!(a.union(CapSet::EMPTY), a, "EMPTY must be the identity");
            // `contains_all` is the induced order: both operands sit
            // below the join, and the join adds nothing else.
            prop_assert!(a.union(b).contains_all(a));
            prop_assert!(a.union(b).contains_all(b));
            for cap in a.union(b).iter() {
                prop_assert!(a.contains(cap) || b.contains(cap), "join invented {cap}");
            }
            // difference is relative complement w.r.t. union.
            prop_assert_eq!(a.difference(b).union(b), a.union(b));
            prop_assert!(a.difference(b).len() + b.len() == a.union(b).len());
            Ok(())
        },
    );
}

#[test]
fn aval_join_is_a_sound_upper_bound() {
    check(
        "aval join laws",
        Config::default(),
        |rng: &mut Rng| (arb_aval_code(rng), arb_aval_code(rng), arb_aval_code(rng)),
        |&(ca, cb, cc)| {
            let (a, b, c) = (aval(ca), aval(cb), aval(cc));
            prop_assert_eq!(a.join(&b), b.join(&a), "join must commute");
            prop_assert_eq!(a.join(&a), a, "join must be idempotent");
            prop_assert_eq!(a.join(&AVal::Bot), a, "Bot must be the identity");
            prop_assert_eq!(a.join(&AVal::Top), AVal::Top, "Top must absorb");
            prop_assert_eq!(
                a.join(&b).join(&c),
                a.join(&b.join(&c)),
                "join must associate"
            );
            let j = a.join(&b);
            prop_assert!(covers(&j, &a), "join lost values of the left operand");
            prop_assert!(covers(&j, &b), "join lost values of the right operand");
            Ok(())
        },
    );
}

#[test]
fn widening_cuts_every_ascending_chain() {
    check(
        "widening termination",
        Config::default(),
        |rng: &mut Rng| rng.vec_of(0, 40, arb_aval_code),
        |codes| {
            // The engine's widening rule (`State::join_from` with
            // `widen` set): a join that changes the accumulator and
            // lands on a strided interval goes straight to Top. Under
            // it, any chain stabilizes after at most 2 changes per
            // value (Bot -> Si/Sp -> Top); without it, folding a
            // finite set still ends on an upper bound of every element.
            let mut widened = AVal::Bot;
            let mut changes = 0u32;
            for &code in codes {
                let j = widened.join(&aval(code));
                if j != widened {
                    changes += 1;
                    widened = if matches!(j, AVal::Si(_)) && changes > 1 { AVal::Top } else { j };
                }
            }
            prop_assert!(changes <= 3, "widened chain changed {changes} times");
            let folded = codes.iter().fold(AVal::Bot, |acc, &c| acc.join(&aval(c)));
            for &code in codes {
                prop_assert!(covers(&folded, &aval(code)), "fold lost {:?}", aval(code));
            }
            Ok(())
        },
    );
}

/// Decodes a raw `u32` into a concrete syscall argument, biased toward
/// the values `concrete_capability` branches on (the pseudo-handles and
/// small permission masks).
fn concrete_arg(raw: u32) -> u32 {
    match raw % 4 {
        0 => 0xffff_ffff, // CURRENT_PROCESS
        1 => 0xffff_fffe, // CURRENT_THREAD
        2 => raw % 8,     // permission-mask territory
        _ => raw,
    }
}

#[test]
fn singleton_lifting_agrees_with_the_concrete_twin() {
    check(
        "abstract/concrete agreement",
        Config::default(),
        |rng: &mut Rng| {
            (
                rng.next_u8(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            )
        },
        |&(idx, r0, r1, r2, r3, r4)| {
            let sysno = Sysno::ALL[idx as usize % Sysno::ALL.len()];
            let args = [
                concrete_arg(r0),
                concrete_arg(r1),
                concrete_arg(r2),
                concrete_arg(r3),
                concrete_arg(r4),
            ];
            let lifted = args.map(AVal::constant);
            let abstract_caps = caps_of_syscall(sysno as u32, &lifted);
            let concrete = concrete_capability(sysno, &args).map(CapSet::of).unwrap_or(CapSet::EMPTY);
            prop_assert_eq!(
                abstract_caps,
                concrete,
                "lifting {sysno:?} with constant args {args:x?} diverged from the replay twin"
            );
            Ok(())
        },
    );
}

#[test]
fn lifting_is_monotone_in_its_arguments() {
    check(
        "lifting monotonicity",
        Config::default(),
        |rng: &mut Rng| {
            (
                rng.next_u8(),
                rng.next_u8(), // per-arg coarsening selector bits
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            )
        },
        |&(idx, coarsen, r0, r1, r2, r3)| {
            let sysno = Sysno::ALL[idx as usize % Sysno::ALL.len()] as u32;
            let args = [concrete_arg(r0), concrete_arg(r1), concrete_arg(r2), concrete_arg(r3), 0];
            let precise = args.map(AVal::constant);
            // Coarsen a selected subset of the arguments: to Top, or to
            // an interval still containing the constant.
            let mut coarse = precise;
            for (i, slot) in coarse.iter_mut().enumerate() {
                match (coarsen >> (2 * (i % 4))) & 0b11 {
                    0b01 => *slot = AVal::Top,
                    0b10 => {
                        let c = args[i];
                        *slot = AVal::Si(StridedInterval::new(1, c.saturating_sub(3), c.saturating_add(3)));
                    }
                    _ => {}
                }
            }
            let tight = caps_of_syscall(sysno, &precise);
            let wide = caps_of_syscall(sysno, &coarse);
            prop_assert!(
                wide.contains_all(tight),
                "coarsening the arguments dropped capabilities: {} -> {}",
                tight.render(),
                wide.render()
            );
            let top = caps_of_syscall(sysno, &[AVal::Top; 5]);
            prop_assert!(top.contains_all(wide), "all-Top must be the per-sysno maximum");
            Ok(())
        },
    );
}

/// Checks `summarize` over one value lattice: `lift` decodes a generated
/// `u16` into a value, `join` is the lattice's least upper bound. Nodes
/// `0..n` have local values and call-graph entries; callees `n..n + 3`
/// have neither, so each must contribute exactly `unknown`.
fn check_summaries<T: Copy + Eq + Default + std::fmt::Debug>(
    label: &str,
    lift: fn(u16) -> T,
    join: fn(T, T) -> T,
) {
    check(
        label,
        Config::with_cases(128),
        |rng: &mut Rng| {
            let n = rng.range_usize(1, 8);
            let edges = rng.vec_of(0, 16, |r| (r.next_u8(), r.next_u8()));
            let locals = (0..n).map(|_| rng.next_u32() as u16).collect::<Vec<u16>>();
            (edges, locals, (rng.next_u8(), rng.next_u32() as u16), rng.next_u32() as u16)
        },
        |(edges, locals, grow, unknown)| {
            // Node and edge codes are reduced into range here, so every
            // shrunk input is still a well-formed graph.
            let n = locals.len() as u32;
            if n == 0 {
                return Ok(());
            }
            let unknown = lift(*unknown);
            let below = |a: T, b: T| join(a, b) == b;
            let mut graph: BTreeMap<u32, BTreeSet<u32>> = (0..n).map(|f| (f, BTreeSet::new())).collect();
            for &(a, b) in edges {
                graph.get_mut(&(u32::from(a) % n)).unwrap().insert(u32::from(b) % (n + 3));
            }
            let local: BTreeMap<u32, T> =
                locals.iter().enumerate().map(|(f, &m)| (f as u32, lift(m))).collect();
            let summary = summarize(&local, &graph, unknown, join);
            prop_assert_eq!(summary.len(), n as usize, "only local functions get summaries");

            for f in 0..n {
                // Fixpoint: a summary absorbs the local value and every
                // callee's summary, or `unknown` for a callee without one.
                prop_assert!(below(local[&f], summary[&f]));
                for g in &graph[&f] {
                    let callee = summary.get(g).copied().unwrap_or(unknown);
                    prop_assert!(below(callee, summary[&f]));
                }
                // Leastness: the summary is exactly the join of the local
                // values of the functions reachable from `f`, plus
                // `unknown` once any callee outside `local` is reachable.
                let mut seen = BTreeSet::from([f]);
                let mut work = vec![f];
                let mut expect = T::default();
                while let Some(g) = work.pop() {
                    let Some(&value) = local.get(&g) else {
                        expect = join(expect, unknown);
                        continue;
                    };
                    expect = join(expect, value);
                    for &h in &graph[&g] {
                        if seen.insert(h) {
                            work.push(h);
                        }
                    }
                }
                prop_assert_eq!(summary[&f], expect, "summary is not the reachable join");
            }

            // Monotonicity: growing one local value never shrinks any
            // summary.
            let (gf, gm) = *grow;
            let mut grown = local.clone();
            let slot = grown.get_mut(&(u32::from(gf) % n)).unwrap();
            *slot = join(*slot, lift(gm));
            let regrown = summarize(&grown, &graph, unknown, join);
            for f in 0..n {
                prop_assert!(
                    below(summary[&f], regrown[&f]),
                    "growing a local value shrank the summary of {f}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn summaries_are_the_monotone_reachable_union() {
    // The capability summary: `CapSet` under union.
    check_summaries("capability summary fixpoint + monotonicity", capset, CapSet::union);
    // The taint phases' source-mask summary: `u8` bitmasks under `|`.
    check_summaries("source-mask summary fixpoint + monotonicity", |m| m as u8, |a, b| a | b);
}
