//! Forward dataflow over a [`Cfg`].
//!
//! The engine is the classic monotone framework specialized to what
//! the temporal rules need: facts are elements of a finite set,
//! joined by set union, propagated by a per-node transfer function.
//! Because node inputs only ever grow (union join) and transfer
//! functions are recomputed from scratch on each visit, the worklist
//! fixpoint terminates for any transfer function that is a pure
//! function of its input — a property the proptest in
//! `tests/dataflow_props.rs` checks against [`solve_naive`], a
//! deliberately dumb round-robin solver used as reference semantics.

use std::collections::{BTreeSet, VecDeque};

use crate::cfg::{Cfg, CfgNode};

/// A forward dataflow analysis: entry facts plus a transfer function.
pub trait Analysis {
    /// The fact domain. `Ord` so facts live in deterministic
    /// [`BTreeSet`]s.
    type Fact: Clone + Ord;

    /// Facts holding at function entry (e.g. parameter-derived).
    fn entry(&self) -> BTreeSet<Self::Fact>;

    /// Facts after `node` executes, given the facts before it.
    fn transfer(&self, node: &CfgNode, input: &BTreeSet<Self::Fact>) -> BTreeSet<Self::Fact>;
}

/// Per-node fixpoint results.
pub struct Solution<F> {
    /// Facts on entry to each node (union over predecessors' outputs).
    pub inputs: Vec<BTreeSet<F>>,
    /// Facts on exit from each node.
    pub outputs: Vec<BTreeSet<F>>,
    /// Node visits performed before convergence (for the bench and
    /// the termination proptest).
    pub iterations: usize,
}

/// Worklist fixpoint. Nodes unreachable from entry are never visited
/// and keep empty in/out sets, so rules never diagnose dead code from
/// flow facts.
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Solution<A::Fact> {
    let n = cfg.nodes.len();
    let mut inputs: Vec<BTreeSet<A::Fact>> = vec![BTreeSet::new(); n];
    let mut outputs: Vec<BTreeSet<A::Fact>> = vec![BTreeSet::new(); n];
    let mut visited = vec![false; n];
    inputs[cfg.entry] = analysis.entry();

    let mut on_list = vec![false; n];
    let mut worklist = VecDeque::with_capacity(n);
    worklist.push_back(cfg.entry);
    on_list[cfg.entry] = true;

    let mut iterations = 0usize;
    // Safety valve: |nodes| × |fact universe| bounds a monotone run;
    // anything past this indicates a non-monotone transfer function,
    // and bailing out with the facts accumulated so far is better
    // than hanging CI.
    let cap = 100_000usize.max(n * 64);

    while let Some(id) = worklist.pop_front() {
        on_list[id] = false;
        iterations += 1;
        if iterations > cap {
            break;
        }
        let first_visit = !visited[id];
        visited[id] = true;
        let out = analysis.transfer(&cfg.nodes[id], &inputs[id]);
        if out == outputs[id] && !first_visit {
            continue;
        }
        outputs[id] = out;
        for &succ in &cfg.succs[id] {
            let before = inputs[succ].len();
            inputs[succ].extend(outputs[id].iter().cloned());
            let grew = inputs[succ].len() != before;
            if (grew || !visited[succ]) && !on_list[succ] {
                on_list[succ] = true;
                worklist.push_back(succ);
            }
        }
    }
    Solution {
        inputs,
        outputs,
        iterations,
    }
}

/// Reference solver: round-robin over all nodes until nothing
/// changes. Quadratic and proudly so — it exists to give the proptest
/// independently-derived expected results. Inputs are recomputed from
/// predecessor outputs each sweep, with a reachability guard so
/// unreachable nodes stay empty like in [`solve`].
pub fn solve_naive<A: Analysis>(cfg: &Cfg, analysis: &A) -> Solution<A::Fact> {
    let n = cfg.nodes.len();
    let mut inputs: Vec<BTreeSet<A::Fact>> = vec![BTreeSet::new(); n];
    let mut outputs: Vec<BTreeSet<A::Fact>> = vec![BTreeSet::new(); n];
    let preds = cfg.preds();
    let reachable = reachability(cfg);
    let mut iterations = 0usize;
    let cap = 100_000usize.max(n * 64);
    loop {
        let mut changed = false;
        for id in 0..n {
            if !reachable[id] {
                continue;
            }
            iterations += 1;
            let mut input: BTreeSet<A::Fact> = if id == cfg.entry {
                analysis.entry()
            } else {
                BTreeSet::new()
            };
            for &p in &preds[id] {
                input.extend(outputs[p].iter().cloned());
            }
            let out = analysis.transfer(&cfg.nodes[id], &input);
            if input != inputs[id] || out != outputs[id] {
                inputs[id] = input;
                outputs[id] = out;
                changed = true;
            }
        }
        if !changed || iterations > cap {
            break;
        }
    }
    Solution {
        inputs,
        outputs,
        iterations,
    }
}

/// Nodes reachable from the entry by following successor edges.
fn reachability(cfg: &Cfg) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack = vec![cfg.entry];
    seen[cfg.entry] = true;
    while let Some(id) = stack.pop() {
        for &s in &cfg.succs[id] {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_block;
    use crate::cfg::build;
    use crate::lexer::lex;

    /// Reaching "live bindings": a `let x = …` generates `x`; a
    /// rebinding regenerates it; `scope_end` kills it.
    struct LiveBindings;

    impl Analysis for LiveBindings {
        type Fact = String;

        fn entry(&self) -> BTreeSet<String> {
            BTreeSet::new()
        }

        fn transfer(&self, node: &CfgNode, input: &BTreeSet<String>) -> BTreeSet<String> {
            let mut out = input.clone();
            for dead in &node.scope_end {
                out.remove(dead);
            }
            for b in &node.binds {
                out.insert(b.clone());
            }
            out
        }
    }

    fn solve_src(src: &str) -> (Cfg, Solution<String>) {
        let toks = lex(src).tokens;
        let n = toks.len();
        let cfg = build(&parse_block(&toks, 0, n));
        let sol = solve(&cfg, &LiveBindings);
        (cfg, sol)
    }

    #[test]
    fn facts_flow_down_straight_line() {
        let (cfg, sol) = solve_src("let a = one(); let b = two(); use_it(a, b);");
        let use_node = cfg
            .nodes
            .iter()
            .position(|n| n.expr.calls_name("use_it"))
            .expect("use node");
        assert!(sol.inputs[use_node].contains("a"));
        assert!(sol.inputs[use_node].contains("b"));
    }

    #[test]
    fn branch_facts_stay_in_branch_and_die_at_scope_end() {
        let (cfg, sol) =
            solve_src("if c { let x = mk(); tag(x); } else { let y = mk(); tag(y); } after();");
        let after = cfg
            .nodes
            .iter()
            .position(|n| n.expr.calls_name("after"))
            .expect("after node");
        // Block-scoped lets die at their scope ends before the join.
        assert!(!sol.inputs[after].contains("x"));
        assert!(!sol.inputs[after].contains("y"));
        let tags: Vec<usize> = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.expr.calls_name("tag"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(tags.len(), 2);
        let both: BTreeSet<&String> = sol.inputs[tags[0]]
            .iter()
            .chain(sol.inputs[tags[1]].iter())
            .collect();
        assert!(both.iter().any(|s| *s == "x"));
        assert!(both.iter().any(|s| *s == "y"));
    }

    #[test]
    fn loop_facts_reach_header_via_back_edge() {
        let (cfg, sol) =
            solve_src("let mut acc = start(); while go() { acc = step(acc); } done(acc);");
        let header = cfg
            .nodes
            .iter()
            .position(|n| n.expr.calls_name("go"))
            .expect("header");
        assert!(sol.inputs[header].contains("acc"));
        assert!(sol.iterations < 1000);
    }

    #[test]
    fn worklist_matches_naive() {
        for src in [
            "let a = x(); if c { let b = y(); } else { a = z(); } w(a);",
            "for i in xs { if p(i) { continue; } if q(i) { break; } body(i); } tail();",
            "match r { Ok(v) => { let t = f(v); g(t); } Err(e) => return h(e), } tail();",
            "loop { let s = poll(); if fin(s) { break; } }",
        ] {
            let toks = lex(src).tokens;
            let n = toks.len();
            let cfg = build(&parse_block(&toks, 0, n));
            let fast = solve(&cfg, &LiveBindings);
            let slow = solve_naive(&cfg, &LiveBindings);
            assert_eq!(fast.inputs, slow.inputs, "inputs diverge on: {src}");
            assert_eq!(fast.outputs, slow.outputs, "outputs diverge on: {src}");
        }
    }
}
