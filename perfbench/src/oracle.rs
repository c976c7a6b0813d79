//! The benchmark's own output checker.
//!
//! Every circuit the benchmark receives — from `synthesize`, from batch
//! records and from serve reply bodies — is checked here against the
//! table the benchmark generated. The checker reads the textual gate
//! form (`TOFn(controls..., target)`, wires `a`, `b`, … = bit 0, 1, …)
//! and simulates it gate by gate; it shares no code with the engine's
//! verifier or with `Circuit::apply`.

/// One Toffoli gate as (control mask, target bit).
type SimGate = (u64, u64);

fn wire(name: &str, width: usize) -> Result<usize, String> {
    let w = match name.as_bytes() {
        [c @ b'a'..=b'z'] => usize::from(c - b'a'),
        [b'x', rest @ ..] => std::str::from_utf8(rest)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad wire name {name:?}"))?,
        _ => return Err(format!("bad wire name {name:?}")),
    };
    if w >= width {
        return Err(format!("wire {name} outside a {width}-wire circuit"));
    }
    Ok(w)
}

fn parse_gate(text: &str, width: usize) -> Result<SimGate, String> {
    let body = text
        .strip_prefix("TOF")
        .and_then(|rest| rest.split_once('('))
        .and_then(|(size, args)| Some((size, args.strip_suffix(')')?)))
        .ok_or_else(|| format!("not a Toffoli gate: {text:?}"))?;
    let (size, args) = body;
    let wires = args
        .split(',')
        .map(|w| wire(w.trim(), width))
        .collect::<Result<Vec<_>, _>>()?;
    if size.parse::<usize>().ok() != Some(wires.len()) {
        return Err(format!("gate size does not match its wires: {text:?}"));
    }
    let (&target, controls) = wires.split_last().ok_or("empty gate")?;
    let mut mask = 0u64;
    for &c in controls {
        if c == target || mask >> c & 1 == 1 {
            return Err(format!("repeated wire in {text:?}"));
        }
        mask |= 1 << c;
    }
    Ok((mask, 1 << target))
}

/// Checks that `gates` (textual form) realize `table` on `width` wires.
pub fn check(gates: &[String], width: usize, table: &[u64]) -> Result<(), String> {
    if table.len() != 1usize << width {
        return Err(format!(
            "table has {} rows, expected {}",
            table.len(),
            1usize << width
        ));
    }
    let sim = gates
        .iter()
        .map(|g| parse_gate(g, width))
        .collect::<Result<Vec<_>, _>>()?;
    for (x, &want) in table.iter().enumerate() {
        let got = sim.iter().fold(x as u64, |v, &(controls, target)| {
            if v & controls == controls {
                v ^ target
            } else {
                v
            }
        });
        if got != want {
            return Err(format!("input {x}: circuit gives {got}, spec wants {want}"));
        }
    }
    Ok(())
}

/// FNV-1a over every circuit of a round, in input order: equal digests
/// mean byte-identical circuits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, gates: &[String]) {
        for g in gates {
            self.bytes(g.as_bytes());
            self.bytes(b";");
        }
        self.bytes(b"\n");
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_known_circuit_and_rejects_a_wrong_one() {
        // CNOT a -> b on two wires: 0->0, 1->3, 2->2, 3->1.
        let gates = vec!["TOF2(a,b)".to_string()];
        assert!(check(&gates, 2, &[0, 3, 2, 1]).is_ok());
        assert!(check(&gates, 2, &[0, 1, 2, 3]).is_err());
        assert!(check(&["TOF3(a,b)".to_string()], 2, &[0, 3, 2, 1]).is_err());
    }
}
