//! Seeded generator of structurally varied mini-Fortran subroutines.
//!
//! Every program has a unique name, so no two draws share a translation
//! cache key, and varies in what the predictor's cost depends on: nest
//! depth and count, imperfect nests, rank-1 and rank-2 arrays with
//! shifted subscripts, strided loops, expression shape and operator mix
//! (including divides and intrinsics), scalar reductions and guarded
//! updates.

use crate::rng::Rng;

/// Loop variables, outermost first. Nests are at most two deep, as in
/// the repository's Figure 7, Matmul, Jacobi and RB kernels.
const LOOP_VARS: [&str; 2] = ["j", "i"];
const LITERALS: [&str; 6] = ["0.5", "2.0", "1.25", "0.25", "3.0", "1.5"];

struct Shape {
    /// `(name, rank)` of every array argument.
    arrays: Vec<(String, usize)>,
    scalars: Vec<String>,
}

/// One generated subroutine named `name`.
pub fn program(rng: &mut Rng, name: &str) -> String {
    let n_arrays = 2 + rng.below(3);
    let arrays: Vec<(String, usize)> = (0..n_arrays)
        .map(|a| (format!("a{a}"), if rng.chance(0.4) { 2 } else { 1 }))
        .collect();
    let scalars: Vec<String> = (0..1 + rng.below(2)).map(|s| format!("s{s}")).collect();
    let shape = Shape { arrays, scalars };

    let mut params: Vec<String> = shape.arrays.iter().map(|(a, _)| a.clone()).collect();
    params.extend(shape.scalars.iter().cloned());
    params.push("n".into());
    params.push("m".into());

    let mut src = format!("subroutine {name}({})\n", params.join(", "));
    let decls: Vec<String> = shape
        .arrays
        .iter()
        .map(|(a, rank)| {
            if *rank == 2 {
                format!("{a}(n,m)")
            } else {
                format!("{a}(n)")
            }
        })
        .chain(shape.scalars.iter().cloned())
        .chain(std::iter::once("t".to_string()))
        .collect();
    src.push_str(&format!("  real {}\n", decls.join(", ")));
    src.push_str("  integer i, j, n, m\n");

    let mut body = String::new();
    let nests = 1 + usize::from(rng.chance(0.1));
    for _ in 0..nests {
        let depth = 1 + usize::from(rng.chance(0.3));
        let vars = &LOOP_VARS[LOOP_VARS.len() - depth..];
        nest(rng, &shape, vars, 0, 1, &mut body);
    }
    // A scalar reduction starts from zero and is stored on exit.
    let reduces = body.contains("t = t +");
    if reduces {
        src.push_str("  t = 0.0\n");
    }
    src.push_str(&body);
    if reduces {
        src.push_str(&format!("  {} = t\n", shape.scalars[0]));
    }
    src.push_str("end\n");
    src
}

/// Emits the loop over `vars[level]` and everything inside it.
fn nest(
    rng: &mut Rng,
    shape: &Shape,
    vars: &[&str],
    level: usize,
    indent: usize,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let var = vars[level];
    let (lb, ub) = match (var, rng.below(3)) {
        ("i", 0) | ("i", 1) => ("1", "n"),
        ("i", _) => ("2", "n-1"),
        (_, 0) => ("2", "m-1"),
        _ => ("1", "m"),
    };
    let step = if rng.chance(0.1) { ", 2" } else { "" };
    out.push_str(&format!("{pad}do {var} = {lb}, {ub}{step}\n"));
    let in_scope = &vars[..=level];
    if level + 1 < vars.len() {
        // Imperfect nest: a statement before the inner loop.
        if rng.chance(0.25) {
            statement(rng, shape, in_scope, indent + 1, out);
        }
        nest(rng, shape, vars, level + 1, indent + 1, out);
    } else {
        for _ in 0..1 + rng.below(4) {
            statement(rng, shape, in_scope, indent + 1, out);
        }
    }
    out.push_str(&format!("{pad}end do\n"));
}

fn statement(rng: &mut Rng, shape: &Shape, vars: &[&str], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let depth = 1 + rng.below(3);
    let rhs = expr(rng, shape, vars, depth);
    match rng.below(20) {
        0..=3 => out.push_str(&format!("{pad}t = t + {rhs}\n")),
        4 => {
            let target = array_ref(rng, shape, vars, false);
            let s = rng.pick(&shape.scalars);
            out.push_str(&format!("{pad}if ({s} .gt. 0.0) {target} = {rhs}\n"));
        }
        _ => {
            let target = array_ref(rng, shape, vars, false);
            out.push_str(&format!("{pad}{target} = {rhs}\n"));
        }
    }
}

fn expr(rng: &mut Rng, shape: &Shape, vars: &[&str], depth: usize) -> String {
    if depth == 0 || rng.chance(0.2) {
        return match rng.below(6) {
            0 => rng.pick(&shape.scalars).clone(),
            1 => rng.pick(&LITERALS).to_string(),
            _ => array_ref(rng, shape, vars, true),
        };
    }
    let a = expr(rng, shape, vars, depth - 1);
    let b = expr(rng, shape, vars, depth - 1);
    match rng.below(12) {
        0..=3 => format!("{a} + {b}"),
        4..=6 => format!("({a}) * ({b})"),
        7 => format!("{a} - ({b})"),
        8 => format!("({a}) / ({b} + 2.0)"),
        9 => format!("sqrt(abs({a}))"),
        10 => format!("max({a}, {b})"),
        _ => format!("min({a}, {b})"),
    }
}

/// A reference to one array, subscripted by the innermost in-scope loop
/// variables with optional shifts (`shift` allows ±1 offsets).
fn array_ref(rng: &mut Rng, shape: &Shape, vars: &[&str], shift: bool) -> String {
    let (name, rank) = rng.pick(&shape.arrays);
    let sub = |rng: &mut Rng, v: &str| -> String {
        if !shift {
            return v.to_string();
        }
        match rng.below(5) {
            0 => format!("{v}+1"),
            1 => format!("{v}-1"),
            _ => v.to_string(),
        }
    };
    let inner = vars[vars.len() - 1];
    if *rank == 1 {
        return format!("{name}({})", sub(rng, inner));
    }
    let outer = if vars.len() >= 2 {
        sub(rng, vars[vars.len() - 2])
    } else {
        "2".to_string()
    };
    format!("{name}({}, {outer})", sub(rng, inner))
}

/// Deepest loop nesting of a mini-Fortran source.
pub fn nest_depth(src: &str) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for line in src.lines().map(str::trim) {
        if line.starts_with("do ") {
            depth += 1;
            max = max.max(depth);
        } else if line.starts_with("end do") {
            depth = depth.saturating_sub(1);
        }
    }
    max
}

/// `count` programs of one seed and stream, named `{prefix}{index}`.
pub fn programs(seed: u64, stream: u64, prefix: &str, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|i| program(&mut rng, &format!("{prefix}{i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use presage_core::predictor::Predictor;

    #[test]
    fn same_seed_gives_same_bytes() {
        assert_eq!(programs(7, 1, "p", 50), programs(7, 1, "p", 50));
        assert_ne!(programs(7, 1, "p", 50), programs(8, 1, "p", 50));
        assert_ne!(programs(7, 1, "p", 50), programs(7, 2, "p", 50));
    }

    #[test]
    fn every_program_predicts_on_all_five_machines() {
        let machines = crate::setup::load_machines().expect("machine files load");
        assert_eq!(machines.len(), 5);
        for seed in 0..4 {
            for src in programs(seed, 1, "p", 150) {
                for m in &machines {
                    let preds = Predictor::new(m.clone())
                        .predict_source(&src)
                        .unwrap_or_else(|e| panic!("{}: {e}\n{src}", m.name()));
                    assert_eq!(preds.len(), 1);
                }
            }
        }
    }

    /// `[ops per subroutine, blocks per subroutine, nest depth]` of a
    /// source translated for `machine`.
    fn shape(src: &str, machine: &presage_machine::MachineDesc) -> [f64; 3] {
        let ir = presage_bench::kernels::translate_kernel(src, machine);
        [
            ir.op_count() as f64,
            crate::cold::block_hashes(&ir).len() as f64,
            nest_depth(src) as f64,
        ]
    }

    /// The generator's mean ops, blocks and nest depth per subroutine
    /// lie within the range the repository's own kernels span.
    #[test]
    fn generated_shapes_lie_within_the_kernels_range() {
        let machines = crate::setup::load_machines().expect("machine files load");
        let wide8 = &machines[3];
        let kernels: Vec<[f64; 3]> = presage_bench::kernels::figure7()
            .iter()
            .map(|k| shape(k.source, wide8))
            .collect();
        let generated: Vec<[f64; 3]> = programs(1, 1, "p", 1000)
            .iter()
            .map(|src| shape(src, wide8))
            .collect();
        for (i, what) in ["ops/sub", "blocks/sub", "nest depth"].iter().enumerate() {
            let lo = kernels.iter().map(|k| k[i]).fold(f64::INFINITY, f64::min);
            let hi = kernels.iter().map(|k| k[i]).fold(0.0, f64::max);
            let mean = generated.iter().map(|g| g[i]).sum::<f64>() / generated.len() as f64;
            println!("{what}: kernels {lo}..{hi}, generated mean {mean:.2}");
            assert!(
                (lo..=hi).contains(&mean),
                "{what}: generated mean {mean:.2} outside the kernels' {lo}..{hi}"
            );
        }
    }
}
