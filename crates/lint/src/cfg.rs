//! Intraprocedural control-flow graph at statement granularity.
//!
//! [`build`] lowers a parsed [`Block`] into a
//! [`Cfg`]: one node per simple statement, plus synthetic nodes for
//! branch conditions, loop headers, match scrutinees/arm patterns,
//! and block-scope ends (so an analysis can kill a binding exactly
//! where it is dropped). Edges follow Rust's structured control flow:
//! `if` forks and rejoins, loops carry a back edge from the body to
//! the header plus exits through the header and every `break`,
//! `return` jumps to the function exit, `continue` to the innermost
//! header. The graph is small (one function body) and acyclic except
//! for loop back edges, so a worklist fixpoint over it converges in a
//! handful of passes.

use crate::ast::{Block, ExprInfo, Stmt, StmtKind};

/// What a node represents, for diagnostics and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Synthetic function entry (no statement).
    Entry,
    /// Synthetic function exit (no statement).
    Exit,
    /// A simple statement (`let`, assignment, expression, `return`
    /// value, `break` value).
    Stmt,
    /// A branch condition / loop header / match scrutinee.
    Branch,
    /// A match-arm pattern (binds the arm's names, evaluates its
    /// guard).
    ArmPattern,
    /// End of a lexical block: the names in `scope_end` go out of
    /// scope here.
    ScopeEnd,
}

/// One CFG node. Every field an analysis transfer function needs is
/// here — analyses never look back at the AST.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// 1-based source line (0 for synthetic entry/exit).
    pub line: u32,
    /// What the node represents.
    pub kind: NodeKind,
    /// Names bound at this node (`let` patterns, loop patterns, arm
    /// patterns). Binding kills any prior fact about the same name.
    pub binds: Vec<String>,
    /// True when the node is a `let _ = …` (value discarded on the
    /// spot).
    pub bind_discard: bool,
    /// Identifiers in the `let` type annotation, when present.
    pub ty: Vec<String>,
    /// The node's expression summary (initializer, condition,
    /// scrutinee, or statement expression).
    pub expr: ExprInfo,
    /// Names whose lexical scope ends at this node.
    pub scope_end: Vec<String>,
}

impl CfgNode {
    fn synthetic(kind: NodeKind) -> Self {
        CfgNode {
            line: 0,
            kind,
            binds: Vec::new(),
            bind_discard: false,
            ty: Vec::new(),
            expr: ExprInfo::default(),
            scope_end: Vec::new(),
        }
    }
}

/// The control-flow graph of one function body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; indices are stable node IDs.
    pub nodes: Vec<CfgNode>,
    /// Successor lists, parallel to `nodes`.
    pub succs: Vec<Vec<usize>>,
    /// The entry node ID.
    pub entry: usize,
    /// The exit node ID.
    pub exit: usize,
}

impl Cfg {
    /// Predecessor lists (computed on demand; the builder only stores
    /// successors).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (from, succs) in self.succs.iter().enumerate() {
            for &to in succs {
                preds[to].push(from);
            }
        }
        preds
    }
}

/// Lowers a block into a [`Cfg`].
pub fn build(block: &Block) -> Cfg {
    let mut b = Builder {
        nodes: vec![
            CfgNode::synthetic(NodeKind::Entry),
            CfgNode::synthetic(NodeKind::Exit),
        ],
        succs: vec![Vec::new(), Vec::new()],
        loops: Vec::new(),
    };
    let tails = b.lower_block(block, vec![ENTRY]);
    for t in tails {
        b.edge(t, EXIT);
    }
    Cfg {
        nodes: b.nodes,
        succs: b.succs,
        entry: ENTRY,
        exit: EXIT,
    }
}

const ENTRY: usize = 0;
const EXIT: usize = 1;

/// Innermost-loop context for `break`/`continue`.
struct LoopCtx {
    header: usize,
    breaks: Vec<usize>,
}

struct Builder {
    nodes: Vec<CfgNode>,
    succs: Vec<Vec<usize>>,
    loops: Vec<LoopCtx>,
}

impl Builder {
    fn add(&mut self, node: CfgNode) -> usize {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    fn connect(&mut self, preds: &[usize], to: usize) {
        for &p in preds {
            self.edge(p, to);
        }
    }

    /// Lowers `block` with the given predecessors; returns the tail
    /// nodes control falls out of (empty when every path diverges).
    /// A synthetic [`NodeKind::ScopeEnd`] node closing the block's
    /// `let` bindings is appended when any exist.
    fn lower_block(&mut self, block: &Block, mut preds: Vec<usize>) -> Vec<usize> {
        let mut scoped: Vec<String> = Vec::new();
        for stmt in &block.stmts {
            if preds.is_empty() {
                // Unreachable remainder (after return/break/continue):
                // still lower it so in-node token-order checks run,
                // but with no incoming flow.
                preds = Vec::new();
            }
            if let StmtKind::Let { names, .. } = &stmt.kind {
                scoped.extend(names.iter().cloned());
            }
            preds = self.lower_stmt(stmt, preds);
        }
        scoped.dedup();
        if !scoped.is_empty() && !preds.is_empty() {
            let end = self.add(CfgNode {
                line: block.stmts.last().map_or(0, |s| s.line),
                kind: NodeKind::ScopeEnd,
                binds: Vec::new(),
                bind_discard: false,
                ty: Vec::new(),
                expr: ExprInfo::default(),
                scope_end: scoped,
            });
            self.connect(&preds, end);
            preds = vec![end];
        }
        preds
    }

    fn stmt_node(&mut self, stmt: &Stmt, kind: NodeKind, expr: ExprInfo) -> usize {
        self.add(CfgNode {
            line: stmt.line,
            kind,
            binds: Vec::new(),
            bind_discard: false,
            ty: Vec::new(),
            expr,
            scope_end: Vec::new(),
        })
    }

    fn lower_stmt(&mut self, stmt: &Stmt, preds: Vec<usize>) -> Vec<usize> {
        match &stmt.kind {
            StmtKind::Let {
                names,
                discard,
                ty,
                init,
            } => {
                let id = self.add(CfgNode {
                    line: stmt.line,
                    kind: NodeKind::Stmt,
                    binds: names.clone(),
                    bind_discard: *discard,
                    ty: ty.clone(),
                    expr: init.clone(),
                    scope_end: Vec::new(),
                });
                self.connect(&preds, id);
                vec![id]
            }
            StmtKind::Assign { name, expr } => {
                let id = self.add(CfgNode {
                    line: stmt.line,
                    kind: NodeKind::Stmt,
                    binds: vec![name.clone()],
                    bind_discard: false,
                    ty: Vec::new(),
                    expr: expr.clone(),
                    scope_end: Vec::new(),
                });
                self.connect(&preds, id);
                vec![id]
            }
            StmtKind::Expr { expr } => {
                let id = self.stmt_node(stmt, NodeKind::Stmt, expr.clone());
                self.connect(&preds, id);
                vec![id]
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.stmt_node(stmt, NodeKind::Branch, cond.clone());
                self.connect(&preds, c);
                let mut tails = self.lower_block(then_blk, vec![c]);
                match else_blk {
                    Some(blk) => tails.extend(self.lower_block(blk, vec![c])),
                    // No else: the false edge falls through.
                    None => tails.push(c),
                }
                tails
            }
            StmtKind::Loop {
                header,
                binds,
                body,
            } => {
                let h = self.add(CfgNode {
                    line: stmt.line,
                    kind: NodeKind::Branch,
                    binds: binds.clone(),
                    bind_discard: false,
                    ty: Vec::new(),
                    expr: header.clone(),
                    scope_end: Vec::new(),
                });
                self.connect(&preds, h);
                self.loops.push(LoopCtx {
                    header: h,
                    breaks: Vec::new(),
                });
                let body_tails = self.lower_block(body, vec![h]);
                for t in body_tails {
                    self.edge(t, h); // back edge
                }
                let ctx = self.loops.pop().expect("loop context pushed above");
                // Exits: the header's false/exhausted edge plus breaks.
                let mut tails = vec![h];
                tails.extend(ctx.breaks);
                tails
            }
            StmtKind::Match { scrutinee, arms } => {
                let s = self.stmt_node(stmt, NodeKind::Branch, scrutinee.clone());
                self.connect(&preds, s);
                let mut tails = Vec::new();
                for arm in arms {
                    let pat = self.add(CfgNode {
                        line: arm.body.stmts.first().map_or(stmt.line, |st| st.line),
                        kind: NodeKind::ArmPattern,
                        binds: arm.binds.clone(),
                        bind_discard: false,
                        ty: Vec::new(),
                        expr: arm.guard.clone(),
                        scope_end: Vec::new(),
                    });
                    self.edge(s, pat);
                    tails.extend(self.lower_block(&arm.body, vec![pat]));
                }
                if arms.is_empty() {
                    tails.push(s);
                }
                tails
            }
            StmtKind::Return { expr } => {
                let id = self.stmt_node(stmt, NodeKind::Stmt, expr.clone());
                self.connect(&preds, id);
                self.edge(id, EXIT);
                Vec::new() // diverges
            }
            StmtKind::Break { expr } => {
                let id = self.stmt_node(stmt, NodeKind::Stmt, expr.clone());
                self.connect(&preds, id);
                if let Some(ctx) = self.loops.last_mut() {
                    ctx.breaks.push(id);
                } else {
                    // `break` outside a loop (parser confusion): treat
                    // as divergence to the exit.
                    self.edge(id, EXIT);
                }
                Vec::new()
            }
            StmtKind::Continue => {
                let id = self.stmt_node(stmt, NodeKind::Stmt, ExprInfo::default());
                self.connect(&preds, id);
                let header = self.loops.last().map(|c| c.header);
                match header {
                    Some(h) => self.edge(id, h),
                    None => self.edge(id, EXIT),
                }
                Vec::new()
            }
            StmtKind::Block { body } => self.lower_block(body, preds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_block;
    use crate::lexer::lex;

    fn cfg_of(src: &str) -> Cfg {
        let toks = lex(src).tokens;
        let n = toks.len();
        build(&parse_block(&toks, 0, n))
    }

    /// Every non-exit node reachable from entry has a path onward.
    fn assert_well_formed(cfg: &Cfg) {
        assert!(cfg.nodes.len() >= 2);
        assert_eq!(cfg.succs.len(), cfg.nodes.len());
        for succs in &cfg.succs {
            for &s in succs {
                assert!(s < cfg.nodes.len());
            }
        }
    }

    #[test]
    fn straight_line_chains() {
        let cfg = cfg_of("let a = one(); let b = two(a); use_it(b);");
        assert_well_formed(&cfg);
        // entry → let a → let b → expr → scope-end → exit
        let mut at = cfg.entry;
        let mut hops = 0;
        while at != cfg.exit {
            assert_eq!(cfg.succs[at].len(), 1, "straight line at node {at}");
            at = cfg.succs[at][0];
            hops += 1;
            assert!(hops < 10);
        }
        assert_eq!(hops, 5);
    }

    #[test]
    fn if_forks_and_rejoins() {
        let cfg = cfg_of("if c { a(); } else { b(); } after();");
        assert_well_formed(&cfg);
        let branch = cfg
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Branch)
            .expect("branch node");
        assert_eq!(cfg.succs[branch].len(), 2);
    }

    #[test]
    fn if_without_else_falls_through() {
        let cfg = cfg_of("if c { a(); } after();");
        let branch = cfg
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Branch)
            .expect("branch node");
        // True edge into the block, false edge to `after()`.
        assert_eq!(cfg.succs[branch].len(), 2);
    }

    #[test]
    fn loop_has_back_edge_and_break_exit() {
        let cfg = cfg_of("while go() { if done { break; } step(); } after();");
        assert_well_formed(&cfg);
        let header = cfg
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Branch && n.expr.calls_name("go"))
            .expect("loop header");
        // Some node inside the body points back at the header.
        let has_back_edge = cfg
            .succs
            .iter()
            .enumerate()
            .any(|(i, s)| i != cfg.entry && i > header && s.contains(&header));
        assert!(has_back_edge, "loop body must re-enter the header");
        // The break node reaches `after()` without passing the header.
        let after = cfg
            .nodes
            .iter()
            .position(|n| n.expr.calls_name("after"))
            .expect("after node");
        let brk = cfg.nodes.iter().position(i_am_break).expect("break node");
        assert!(cfg.succs[brk].contains(&after));
    }

    fn i_am_break(n: &CfgNode) -> bool {
        n.kind == NodeKind::Stmt
            && n.expr.calls.is_empty()
            && n.expr.uses.is_empty()
            && n.binds.is_empty()
            && n.line > 0
            && n.scope_end.is_empty()
    }

    #[test]
    fn return_diverges_to_exit() {
        let cfg = cfg_of("if c { return err(); } ok();");
        let ret = cfg
            .nodes
            .iter()
            .position(|n| n.expr.calls_name("err"))
            .expect("return node");
        assert_eq!(cfg.succs[ret], vec![cfg.exit]);
    }

    #[test]
    fn match_fans_out_per_arm() {
        let cfg = cfg_of("match r { Ok(v) => good(v), Err(e) => bad(e), } after();");
        let arms = cfg
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::ArmPattern)
            .count();
        assert_eq!(arms, 2);
        let scrut = cfg
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Branch)
            .expect("scrutinee");
        assert_eq!(cfg.succs[scrut].len(), 2);
    }

    #[test]
    fn scope_end_kills_block_locals() {
        let cfg = cfg_of("{ let g = m.lock(); use_it(&g); } after();");
        let end = cfg
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::ScopeEnd)
            .expect("scope end");
        assert_eq!(end.scope_end, vec!["g".to_string()]);
    }

    #[test]
    fn preds_invert_succs() {
        let cfg = cfg_of("if c { a(); } b();");
        let preds = cfg.preds();
        for (from, succs) in cfg.succs.iter().enumerate() {
            for &to in succs {
                assert!(preds[to].contains(&from));
            }
        }
    }
}
