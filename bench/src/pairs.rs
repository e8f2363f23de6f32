//! `bench check-pairs`: the house bitwise contract, enforced by the
//! benchmark. Pipelines that answer the same query over the same stream must
//! produce the same answers, so their digests must agree wherever their runs
//! overlap.

use std::path::Path;

/// Workloads whose answer digests must agree over their common prefix.
/// (`taxi-serve`'s digest is its first subscription's.)
const PAIRS: [&[&str]; 2] = [
    &["uniform-slide", "uniform-mesh"],
    &["taxi-slide", "taxi-mesh", "taxi-durable", "taxi-serve"],
];

/// One `<workload>.digest` file: the seed and the `(refreshes, digest)` marks.
struct Digest {
    seed: u64,
    marks: Vec<(u64, u64)>,
}

fn parse(text: &str) -> Result<Digest, String> {
    let mut lines = text.lines();
    let seed = lines
        .next()
        .and_then(|l| l.strip_prefix("seed "))
        .and_then(|s| s.parse().ok())
        .ok_or("missing seed line")?;
    let marks = lines
        .map(|l| {
            let (n, d) = l.split_once(' ').ok_or(format!("bad mark {l:?}"))?;
            let n = n.parse::<u64>().map_err(|e| format!("{l:?}: {e}"))?;
            let d = u64::from_str_radix(d, 16).map_err(|e| format!("{l:?}: {e}"))?;
            Ok((n, d))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Digest { seed, marks })
}

fn load(dir: &Path, workload: &str) -> Result<Digest, String> {
    let path = dir.join(format!("{workload}.digest"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run the workload first)", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two digests over the marks both reached; returns how many.
fn compare(a: &Digest, b: &Digest) -> Result<usize, String> {
    if a.seed != b.seed {
        return Err(format!(
            "seeds differ ({} vs {}); rerun with one seed",
            a.seed, b.seed
        ));
    }
    let common = a.marks.len().min(b.marks.len());
    if common == 0 {
        return Err("no common digest mark; run longer".into());
    }
    match a.marks[..common]
        .iter()
        .zip(&b.marks[..common])
        .find(|(x, y)| x != y)
    {
        Some(((n, x), (_, y))) => Err(format!(
            "answers diverge by refresh {n}: {x:016x} vs {y:016x}"
        )),
        None => Ok(common),
    }
}

/// Checks every pair group against its first member.
pub fn check_pairs(dir: &Path) -> Result<(), String> {
    for group in PAIRS {
        let anchor = load(dir, group[0])?;
        for other in &group[1..] {
            let common = compare(&anchor, &load(dir, other)?)
                .map_err(|e| format!("{} vs {other}: {e}", group[0]))?;
            println!(
                "{} == {other} over {common} digest marks (seed {})",
                group[0], anchor.seed
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_prefix_is_compared() {
        let a = parse("seed 7\n500 00000000000000aa\n1000 00000000000000bb\n").unwrap();
        let b = parse("seed 7\n500 00000000000000aa\n").unwrap();
        assert_eq!(compare(&a, &b), Ok(1));
        let c = parse("seed 7\n500 00000000000000ab\n").unwrap();
        assert!(compare(&a, &c).unwrap_err().contains("diverge"));
        let d = parse("seed 8\n500 00000000000000aa\n").unwrap();
        assert!(compare(&a, &d).unwrap_err().contains("seeds differ"));
        let e = parse("seed 7\n").unwrap();
        assert!(compare(&a, &e).unwrap_err().contains("no common"));
        assert!(parse("500 aa\n").is_err());
    }
}
