//! Function-granular, shift-invariant module diffing for incremental
//! re-analysis.
//!
//! The serve daemon keeps per-module analysis artifacts warm across
//! requests; when an edited module comes back, it needs to know *which
//! functions* actually changed, so only the channels whose analysis can
//! observe the edit are recomputed, and *how far* every other function
//! moved, so the replayed reports can be rebased onto the new text. This
//! module provides the shape the daemon caches ([`ModuleShape`]) and the
//! comparison ([`module_diff`], [`changed_funcs`]).
//!
//! A function fingerprint must cover everything that can influence a
//! detection result anchored in that function, including data the CFG dump
//! omits:
//!
//! * the instruction/terminator structure ([`dump_function_into`]);
//! * every source span, relative to the function's *base span*
//!   ([`Function::span`]): byte offsets and lines minus the base's,
//!   columns absolute, synthetic spans as a fixed marker;
//! * the [`FuncId`] — replayed reports embed `Loc`s, which are only valid
//!   if the function kept its id;
//! * register names and types — reports name primitives after the first
//!   variable bound to them.
//!
//! Fingerprints are shift-invariant on purpose: lines added or removed
//! above a function move every one of its spans by the same
//! `(Δbyte, Δline)`, which leaves its fingerprint unchanged; the diff
//! reports that move as the function's [`Shift`] instead of a change.
//! Columns stay absolute because a shift only moves whole lines: text
//! inserted in front of a function's code on one of its own lines moves
//! columns, and reads as a change. Everything is hashed structurally
//! through [`Fnv`]; no `Debug` string feeds a fingerprint.

use crate::fnv::Fnv;
use crate::ir::{dump_function_into, FuncId, Function, Module};
use golite::{Span, Type};

/// Feeds `span` relative to `base`: byte offsets and line minus the
/// base's (wrapping, so a span before its base still hashes exactly),
/// column absolute. Synthetic spans hash as one marker, so they do not
/// depend on where the function sits.
pub fn hash_span(h: &mut Fnv, span: Span, base: Span) {
    if span.is_synthetic() {
        h.u8(0);
        return;
    }
    h.u8(1)
        .u32(span.start.wrapping_sub(base.start))
        .u32(span.end.wrapping_sub(base.start))
        .u32(span.line.wrapping_sub(base.line))
        .u32(span.col);
}

fn hash_type(h: &mut Fnv, ty: &Type) {
    let tag = match ty {
        Type::Int => 0,
        Type::Bool => 1,
        Type::String => 2,
        Type::Error => 3,
        Type::Unit => 4,
        Type::Chan(_) => 5,
        Type::Ptr(_) => 6,
        Type::Slice(_) => 7,
        Type::Mutex => 8,
        Type::RwMutex => 9,
        Type::WaitGroup => 10,
        Type::Cond => 11,
        Type::Context => 12,
        Type::TestingT => 13,
        Type::Func(..) => 14,
        Type::Named(_) => 15,
    };
    h.u8(tag);
    match ty {
        Type::Chan(elem) | Type::Ptr(elem) | Type::Slice(elem) => hash_type(h, elem),
        Type::Func(params, results) => {
            hash_types(h, params);
            hash_types(h, results);
        }
        Type::Named(name) => {
            h.str(name);
        }
        _ => {}
    }
}

fn hash_types(h: &mut Fnv, tys: &[Type]) {
    h.len(tys.len());
    for ty in tys {
        hash_type(h, ty);
    }
}

/// Fingerprint of one function: id, name, signature, register metadata,
/// the full CFG dump, and every source span relative to the function's
/// base span.
pub fn function_fingerprint(f: &Function, scratch: &mut String) -> u64 {
    let mut h = Fnv::new();
    h.u32(f.id.0)
        .str(&f.name)
        .len(f.params.len())
        .len(f.n_captures)
        .u8(u8::from(f.is_closure));
    hash_types(&mut h, &f.results);
    h.len(f.var_names.len());
    for name in &f.var_names {
        h.str(name);
    }
    hash_types(&mut h, &f.var_types);
    scratch.clear();
    dump_function_into(f, scratch);
    h.str(scratch);
    let base = f.span;
    hash_span(&mut h, base, base);
    for block in &f.blocks {
        h.len(block.spans.len());
        for &span in &block.spans {
            hash_span(&mut h, span, base);
        }
        hash_span(&mut h, block.term_span, base);
    }
    h.finish()
}

/// One function's entry in a [`ModuleShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncShape {
    /// Shift-invariant fingerprint ([`function_fingerprint`]).
    pub fingerprint: u64,
    /// The base span every other span of the function is hashed against
    /// (the declaration's span).
    pub base: Span,
}

/// Everything the differ needs to compare two lowered versions of one
/// module: per-function fingerprints and base spans, plus a hash of the
/// module-level items (globals, struct declarations, function roster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleShape {
    /// One entry per function, indexed by [`FuncId`].
    pub funcs: Vec<FuncShape>,
    /// Hash of everything outside function bodies: globals, structs (by
    /// name and fields, not position), and the function roster (count +
    /// names in id order). Two shapes with different toplevel hashes are
    /// incomparable.
    pub toplevel: u64,
    /// Combined fingerprint of the whole shape (toplevel + every function
    /// and where it sits, in id order) — the module identity the daemon
    /// reports in `status`.
    pub fingerprint: u64,
}

/// Computes the diffable shape of a lowered module.
pub fn module_shape(module: &Module) -> ModuleShape {
    let mut top = Fnv::new();
    top.len(module.funcs.len());
    for f in &module.funcs {
        top.str(&f.name);
    }
    top.len(module.globals.len());
    for g in &module.globals {
        top.str(&g.name).u32(g.id.0);
        hash_type(&mut top, &g.ty);
    }
    top.len(module.structs.len());
    for s in &module.structs {
        top.str(&s.name).len(s.fields.len());
        for (name, ty) in &s.fields {
            top.str(name);
            hash_type(&mut top, ty);
        }
    }

    let mut scratch = String::new();
    let mut whole = top;
    let funcs = module
        .funcs
        .iter()
        .map(|f| {
            let shape = FuncShape {
                fingerprint: function_fingerprint(f, &mut scratch),
                base: f.span,
            };
            whole
                .u64(shape.fingerprint)
                .u32(f.span.start)
                .u32(f.span.line);
            shape
        })
        .collect();
    ModuleShape {
        funcs,
        toplevel: top.finish(),
        fingerprint: whole.finish(),
    }
}

/// How far an unchanged function's text moved between two versions of a
/// module: every span of the function moved by the same byte and line
/// offsets, and no column moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Shift {
    /// Byte offset delta.
    pub bytes: i64,
    /// Line delta.
    pub lines: i64,
}

impl Shift {
    fn between(old: Span, new: Span) -> Shift {
        Shift {
            bytes: i64::from(new.start) - i64::from(old.start),
            lines: i64::from(new.line) - i64::from(old.line),
        }
    }

    /// A span of the old function, moved to where the same code sits in
    /// the new module. Synthetic spans stay synthetic.
    pub fn apply(self, span: Span) -> Span {
        if span.is_synthetic() {
            return span;
        }
        let moved = |v: u32, by: i64| (i64::from(v) + by) as u32;
        Span {
            start: moved(span.start, self.bytes),
            end: moved(span.end, self.bytes),
            line: moved(span.line, self.lines),
            col: span.col,
        }
    }
}

/// The function-granular difference between two comparable shapes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleDiff {
    /// Functions whose fingerprint changed, ascending.
    pub changed: Vec<FuncId>,
    /// Indexed by [`FuncId`]: how far each unchanged function moved,
    /// `None` for a changed one.
    shifts: Vec<Option<Shift>>,
}

impl ModuleDiff {
    /// How far an unchanged function moved; `None` when the function
    /// changed (or is not in the module), in which case nothing recorded
    /// against its old text can be carried over.
    pub fn shift(&self, func: FuncId) -> Option<Shift> {
        self.shifts.get(func.0 as usize).copied().flatten()
    }
}

/// Function-granular diff of two shapes of the *same* module path: the
/// changed functions plus the [`Shift`] of every other one. Returns
/// `None` when the shapes are incomparable — the toplevel items (and with
/// them the function roster) differ — in which case the caller must fall
/// back to a full re-analysis.
pub fn module_diff(old: &ModuleShape, new: &ModuleShape) -> Option<ModuleDiff> {
    if old.toplevel != new.toplevel || old.funcs.len() != new.funcs.len() {
        return None;
    }
    let mut changed = Vec::new();
    let shifts = old
        .funcs
        .iter()
        .zip(&new.funcs)
        .enumerate()
        .map(|(i, (o, n))| {
            if o.fingerprint == n.fingerprint {
                Some(Shift::between(o.base, n.base))
            } else {
                changed.push(FuncId(i as u32));
                None
            }
        })
        .collect();
    Some(ModuleDiff { changed, shifts })
}

/// The changed functions of [`module_diff`] (ids in the new module,
/// ascending), or `None` when the shapes are incomparable.
pub fn changed_funcs(old: &ModuleShape, new: &ModuleShape) -> Option<Vec<FuncId>> {
    module_diff(old, new).map(|d| d.changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_source;

    const BASE: &str = r#"
package main

func helper(n int) int {
    return n + 1
}

func main() {
    ch := make(chan int, 1)
    ch <- helper(1)
    <-ch
}
"#;

    const CLOSURE: &str = r#"
package main

func main() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
    <-ch
}
"#;

    /// Every span of `old`, moved by `shift`, is the matching span of `new`.
    fn assert_moved(old: &Function, new: &Function, shift: Shift) {
        assert_eq!(shift.apply(old.span), new.span);
        for (ob, nb) in old.blocks.iter().zip(&new.blocks) {
            let moved: Vec<Span> = ob.spans.iter().map(|&s| shift.apply(s)).collect();
            assert_eq!(moved, nb.spans);
            assert_eq!(shift.apply(ob.term_span), nb.term_span);
        }
    }

    #[test]
    fn identical_sources_have_no_changes() {
        let a = module_shape(&lower_source(BASE).unwrap());
        let b = module_shape(&lower_source(BASE).unwrap());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(changed_funcs(&a, &b), Some(Vec::new()));
    }

    #[test]
    fn body_edit_changes_exactly_that_function() {
        let a = module_shape(&lower_source(BASE).unwrap());
        let edited = BASE.replace("return n + 1", "return n + 2");
        let new_module = lower_source(&edited).unwrap();
        let b = module_shape(&new_module);
        let changed = changed_funcs(&a, &b).expect("comparable shapes");
        assert_eq!(changed.len(), 1);
        let f = new_module.func(changed[0]);
        assert_eq!(f.name.as_str(), "helper");
    }

    #[test]
    fn lines_above_a_function_move_it_without_changing_it() {
        // A comment and a blank line above `main`: nothing changes, `helper`
        // (declared first) stays put, and `main` moves by the nine inserted
        // bytes and two lines.
        let old_module = lower_source(BASE).unwrap();
        let edited = BASE.replace("func main()", "// note\n\nfunc main()");
        let new_module = lower_source(&edited).unwrap();
        let (a, b) = (module_shape(&old_module), module_shape(&new_module));
        assert_ne!(a.fingerprint, b.fingerprint, "the module identity moved");
        let diff = module_diff(&a, &b).expect("comparable shapes");
        assert!(diff.changed.is_empty(), "moved code is not changed code");
        for (old, new) in old_module.funcs.iter().zip(&new_module.funcs) {
            let shift = diff.shift(new.id).expect("unchanged functions shift");
            let expected = match new.name.as_str() {
                "helper" => Shift::default(),
                "main" => Shift { bytes: 9, lines: 2 },
                other => panic!("unexpected function {other}"),
            };
            assert_eq!(shift, expected, "{}", new.name);
            assert_moved(old, new, shift);
        }
    }

    #[test]
    fn column_shift_of_a_closure_first_line_is_a_change() {
        // Same lines, but the closure starts one column further right.
        let a = module_shape(&lower_source(CLOSURE).unwrap());
        let edited = CLOSURE.replace("go func()", "go  func()");
        let new_module = lower_source(&edited).unwrap();
        let b = module_shape(&new_module);
        let diff = module_diff(&a, &b).expect("comparable shapes");
        let closure = new_module
            .funcs
            .iter()
            .find(|f| f.is_closure)
            .expect("the closure is lifted");
        assert!(diff.changed.contains(&closure.id), "{:?}", diff.changed);
        assert_eq!(diff.shift(closure.id), None);
    }

    #[test]
    fn struct_below_the_edit_keeps_shapes_comparable() {
        let with_struct = format!("{BASE}\ntype box struct {{\n    n int\n}}\n");
        let a = module_shape(&lower_source(&with_struct).unwrap());
        let edited = with_struct.replace("func helper", "\nfunc helper");
        let b = module_shape(&lower_source(&edited).unwrap());
        let diff = module_diff(&a, &b).expect("a moved struct is not a toplevel change");
        assert!(diff.changed.is_empty());
        let renamed = with_struct.replace("n int\n}", "m int\n}");
        let c = module_shape(&lower_source(&renamed).unwrap());
        assert_eq!(changed_funcs(&a, &c), None, "a changed field is");
    }

    #[test]
    fn toplevel_change_is_incomparable() {
        let a = module_shape(&lower_source(BASE).unwrap());
        let edited = format!("{BASE}\nfunc extra() {{\n}}\n");
        let b = module_shape(&lower_source(&edited).unwrap());
        assert_eq!(changed_funcs(&a, &b), None, "roster change: full rerun");
    }
}
