//! The text assembler: recon assembly source → [`AsmProgram`].
//!
//! ## Grammar
//!
//! The language is line-oriented. Each line is one of: a label
//! definition (`name:`), a directive, an instruction, or blank. `#` and
//! `;` start comments that run to end of line. A label on a line of its
//! own binds to the next instruction emitted.
//!
//! Directives:
//!
//! | directive | meaning |
//! |---|---|
//! | `.entry <label> [rN=<val> ...]` | add a hardware-thread entry point with register seeds |
//! | `.alias <name> <reg>` | name a register (position-independent; `zero` is built in for `r0`) |
//! | `.data <addr> <val>` | define one initial-memory word |
//! | `.words <addr> <v0> <v1> ...` | define consecutive words starting at `addr` |
//! | `.zero <addr> <count>` | define `count` zero words starting at `addr` |
//!
//! Instructions use the same mnemonics the `Inst` `Display` impl prints
//! (`li`, `add`/`addi`, …, `ld r2, [r1+0x10]`, `ldx r3, [r1+r2*8]`,
//! `st`, `amoadd`, `beq`/`bne`/`bltu`/`bgeu`, `j`, `nop`, `halt`), so a
//! disassembly re-assembles. `mv dst, src` is accepted as sugar for
//! `addi dst, src, 0x0`. Memory operands must not contain spaces.
//! Numbers are decimal or `0x` hex; a leading `-` wraps (two's
//! complement) for immediates and is a signed offset in memory operands.
//!
//! All source errors are reported as [`AsmTextError`] with a 1-based
//! line and column; the assembler never panics on malformed input.

use std::collections::HashMap;
use std::fmt;

use recon_isa::asm::AsmError;
use recon_isa::reg::NUM_ARCH_REGS;
use recon_isa::{AluKind, ArchReg, Asm, BranchKind, Program, ProgramError};

/// A source-located assembly error. `line` and `col` are 1-based.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmTextError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
}

impl AsmTextError {
    fn new(line: usize, col: usize, msg: impl Into<String>) -> Self {
        AsmTextError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for AsmTextError {}

/// One hardware-thread entry point declared by `.entry`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntrySpec {
    /// Instruction index the thread starts at.
    pub entry: usize,
    /// Initial register values applied before the first instruction.
    pub seeds: Vec<(ArchReg, u64)>,
}

/// An assembled program plus the front-end metadata the binary
/// [`Program`] cannot carry: entry specs and the label table.
#[derive(Clone, PartialEq, Debug)]
pub struct AsmProgram {
    /// The validated program. `program.entry` is the first entry spec.
    pub program: Program,
    /// Entry points in `.entry` declaration order (one per hardware
    /// thread); defaults to a single seedless entry at instruction 0.
    pub entries: Vec<EntrySpec>,
    /// `(name, instruction index)` pairs in definition order.
    pub labels: Vec<(String, usize)>,
}

impl AsmProgram {
    /// Structural equality on the parts that affect execution: code,
    /// image, and entry specs (label *names* are presentation only).
    #[must_use]
    pub fn same_binary(&self, other: &AsmProgram) -> bool {
        self.program == other.program && self.entries == other.entries
    }
}

/// Suggests the closest candidate to `input` within edit distance 2,
/// for "did you mean" diagnostics. Ties go to the candidate that sorts
/// first by name, so the hint does not depend on the candidates' order
/// (some come from hash-map iteration).
#[must_use]
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|cand| (edit_distance(input, cand), cand))
        .filter(|&(d, _)| d <= 2)
        .min()
        .map(|(_, c)| c)
}

/// Optimal-string-alignment distance over bytes (sources here are
/// ASCII): Levenshtein plus adjacent transpositions, so `mfc` is one
/// edit from `mcf`.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev2 = vec![0usize; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                cur[j + 1] = cur[j + 1].min(prev2[j - 1] + 1);
            }
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// All instruction mnemonics, for "unknown mnemonic" suggestions.
const MNEMONICS: &[&str] = &[
    "li", "mv", "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sltu", "addi", "subi",
    "muli", "andi", "ori", "xori", "shli", "shri", "sltui", "ld", "ldx", "st", "amoadd", "beq",
    "bne", "bltu", "bgeu", "j", "nop", "halt",
];

const DIRECTIVES: &[&str] = &[".entry", ".alias", ".data", ".words", ".zero"];

/// A source token with its 1-based column.
#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    s: &'a str,
    col: usize,
}

/// Splits a comment-stripped line on whitespace and commas.
fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() || ch == ',' {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    s: &line[s..i],
                    col: s + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            s: &line[s..],
            col: s + 1,
        });
    }
    toks
}

fn strip_comment(line: &str) -> &str {
    match line.find(['#', ';']) {
        Some(i) => &line[..i],
        None => line,
    }
}

/// A label use site, resolved in pass 2.
#[derive(Clone, Debug)]
struct LabelRef {
    name: String,
    line: usize,
    col: usize,
}

/// Pass-1 statement IR: everything is parsed and register-resolved, but
/// branch targets are still label names.
#[derive(Clone, Debug)]
enum Stmt {
    Bind(String),
    LoadImm {
        dst: ArchReg,
        imm: u64,
    },
    Alu {
        kind: AluKind,
        dst: ArchReg,
        a: ArchReg,
        b: ArchReg,
    },
    AluImm {
        kind: AluKind,
        dst: ArchReg,
        a: ArchReg,
        imm: u64,
    },
    Load {
        dst: ArchReg,
        base: ArchReg,
        offset: i64,
    },
    LoadIdx {
        dst: ArchReg,
        base: ArchReg,
        index: ArchReg,
    },
    Store {
        val: ArchReg,
        base: ArchReg,
        offset: i64,
    },
    AmoAdd {
        dst: ArchReg,
        base: ArchReg,
        offset: i64,
        add: ArchReg,
    },
    Branch {
        kind: BranchKind,
        a: ArchReg,
        b: ArchReg,
        target: LabelRef,
    },
    Jump {
        target: LabelRef,
    },
    Nop,
    Halt,
}

impl Stmt {
    fn is_inst(&self) -> bool {
        !matches!(self, Stmt::Bind(_))
    }
}

struct Parser<'a> {
    aliases: HashMap<&'a str, ArchReg>,
    stmts: Vec<Stmt>,
    /// name → instruction index
    label_defs: HashMap<String, usize>,
    label_order: Vec<(String, usize)>,
    image: Vec<(u64, u64)>,
    entries: Vec<(LabelRef, Vec<(ArchReg, u64)>)>,
    inst_count: usize,
}

type PResult<T> = Result<T, AsmTextError>;

impl<'a> Parser<'a> {
    fn new() -> Self {
        Parser {
            aliases: HashMap::new(),
            stmts: Vec::new(),
            label_defs: HashMap::new(),
            label_order: Vec::new(),
            image: Vec::new(),
            entries: Vec::new(),
            inst_count: 0,
        }
    }

    fn parse_reg(&self, line: usize, tok: Tok<'_>) -> PResult<ArchReg> {
        if let Some(&r) = self.aliases.get(tok.s) {
            return Ok(r);
        }
        if tok.s == "zero" {
            return Ok(ArchReg::ZERO);
        }
        if let Some(num) = tok.s.strip_prefix('r') {
            if num.chars().all(|c| c.is_ascii_digit()) && !num.is_empty() {
                if let Ok(i) = num.parse::<usize>() {
                    if let Some(r) = ArchReg::try_new(i) {
                        return Ok(r);
                    }
                }
                return Err(AsmTextError::new(
                    line,
                    tok.col,
                    format!(
                        "unknown register '{}' (valid registers are r0..r{})",
                        tok.s,
                        NUM_ARCH_REGS - 1
                    ),
                ));
            }
        }
        let mut msg = format!("unknown register or alias '{}'", tok.s);
        if let Some(hint) = suggest(tok.s, self.aliases.keys().copied()) {
            msg.push_str(&format!(" (did you mean '{hint}'?)"));
        }
        Err(AsmTextError::new(line, tok.col, msg))
    }

    fn parse_u64(&self, line: usize, tok: Tok<'_>) -> PResult<u64> {
        parse_u64_tok(line, tok)
    }

    fn expect_arity(line: usize, toks: &[Tok<'_>], n: usize, usage: &str) -> PResult<()> {
        if toks.len() - 1 != n {
            let col = toks
                .get(n.min(toks.len() - 1))
                .map_or(toks[0].col, |t| t.col);
            return Err(AsmTextError::new(
                line,
                col,
                format!(
                    "'{}' expects {} operand{} (usage: {usage})",
                    toks[0].s,
                    n,
                    if n == 1 { "" } else { "s" }
                ),
            ));
        }
        Ok(())
    }

    /// Parses `[base]`, `[base+off]`, or `[base-off]`.
    fn parse_mem(&self, line: usize, tok: Tok<'_>) -> PResult<(ArchReg, i64)> {
        let inner = mem_inner(line, tok)?;
        let split = inner.s[1..].find(['+', '-']).map(|i| i + 1);
        match split {
            None => Ok((self.parse_reg(line, inner)?, 0)),
            Some(i) => {
                let base = self.parse_reg(
                    line,
                    Tok {
                        s: &inner.s[..i],
                        col: inner.col,
                    },
                )?;
                let off_tok = Tok {
                    s: &inner.s[i..],
                    col: inner.col + i,
                };
                Ok((base, parse_i64_tok(line, off_tok)?))
            }
        }
    }

    /// Parses `[base+index*8]` for `ldx`.
    fn parse_mem_idx(&self, line: usize, tok: Tok<'_>) -> PResult<(ArchReg, ArchReg)> {
        let inner = mem_inner(line, tok)?;
        let bad = || {
            AsmTextError::new(
                line,
                tok.col,
                format!(
                    "malformed indexed operand '{}' (expected [base+index*8])",
                    tok.s
                ),
            )
        };
        let plus = inner.s.find('+').ok_or_else(bad)?;
        let rest = &inner.s[plus + 1..];
        let idx = rest.strip_suffix("*8").ok_or_else(bad)?;
        let base = self.parse_reg(
            line,
            Tok {
                s: &inner.s[..plus],
                col: inner.col,
            },
        )?;
        let index = self.parse_reg(
            line,
            Tok {
                s: idx,
                col: inner.col + plus + 1,
            },
        )?;
        Ok((base, index))
    }

    fn push_inst(&mut self, stmt: Stmt) {
        debug_assert!(stmt.is_inst());
        self.inst_count += 1;
        self.stmts.push(stmt);
    }

    fn parse_directive(&mut self, line: usize, toks: &[Tok<'a>]) -> PResult<()> {
        let head = toks[0];
        match head.s {
            ".alias" => Ok(()), // handled in the alias pre-pass
            ".entry" => {
                if toks.len() < 2 {
                    return Err(AsmTextError::new(
                        line,
                        head.col,
                        "'.entry' expects a label (usage: .entry <label> [rN=<val> ...])",
                    ));
                }
                let target = LabelRef {
                    name: toks[1].s.to_string(),
                    line,
                    col: toks[1].col,
                };
                let mut seeds = Vec::new();
                for t in &toks[2..] {
                    let Some(eq) = t.s.find('=') else {
                        return Err(AsmTextError::new(
                            line,
                            t.col,
                            format!("malformed register seed '{}' (expected rN=<val>)", t.s),
                        ));
                    };
                    let reg = self.parse_reg(
                        line,
                        Tok {
                            s: &t.s[..eq],
                            col: t.col,
                        },
                    )?;
                    let val = self.parse_u64(
                        line,
                        Tok {
                            s: &t.s[eq + 1..],
                            col: t.col + eq + 1,
                        },
                    )?;
                    seeds.push((reg, val));
                }
                self.entries.push((target, seeds));
                Ok(())
            }
            ".data" => {
                Self::expect_arity(line, toks, 2, ".data <addr> <val>")?;
                let addr = self.parse_aligned_addr(line, toks[1])?;
                let val = self.parse_u64(line, toks[2])?;
                self.image.push((addr, val));
                Ok(())
            }
            ".words" => {
                if toks.len() < 3 {
                    return Err(AsmTextError::new(
                        line,
                        head.col,
                        "'.words' expects an address and at least one value",
                    ));
                }
                let addr = self.parse_aligned_addr(line, toks[1])?;
                for (i, t) in toks[2..].iter().enumerate() {
                    let val = self.parse_u64(line, *t)?;
                    let Some(a) = addr.checked_add(8 * i as u64) else {
                        return Err(AsmTextError::new(
                            line,
                            t.col,
                            "'.words' run wraps past the end of the address space",
                        ));
                    };
                    self.image.push((a, val));
                }
                Ok(())
            }
            ".zero" => {
                Self::expect_arity(line, toks, 2, ".zero <addr> <count>")?;
                let addr = self.parse_aligned_addr(line, toks[1])?;
                let count = self.parse_u64(line, toks[2])?;
                if count > 1 << 24 {
                    return Err(AsmTextError::new(
                        line,
                        toks[2].col,
                        format!("'.zero' count {count} too large (max {})", 1u64 << 24),
                    ));
                }
                if addr.checked_add(8 * count).is_none() {
                    return Err(AsmTextError::new(
                        line,
                        toks[1].col,
                        "'.zero' run wraps past the end of the address space",
                    ));
                }
                for i in 0..count {
                    self.image.push((addr + 8 * i, 0));
                }
                Ok(())
            }
            other => {
                let mut msg = format!("unknown directive '{other}'");
                if let Some(hint) = suggest(other, DIRECTIVES.iter().copied()) {
                    msg.push_str(&format!(" (did you mean '{hint}'?)"));
                }
                Err(AsmTextError::new(line, head.col, msg))
            }
        }
    }

    fn parse_aligned_addr(&self, line: usize, tok: Tok<'_>) -> PResult<u64> {
        let addr = self.parse_u64(line, tok)?;
        if addr % 8 != 0 {
            return Err(AsmTextError::new(
                line,
                tok.col,
                format!("misaligned data address {addr:#x} (must be 8-byte aligned)"),
            ));
        }
        Ok(addr)
    }

    fn label_ref(line: usize, tok: Tok<'_>) -> LabelRef {
        LabelRef {
            name: tok.s.to_string(),
            line,
            col: tok.col,
        }
    }

    fn parse_inst(&mut self, line: usize, toks: &[Tok<'a>]) -> PResult<()> {
        let head = toks[0];
        let alu_rr = |m: &str| -> Option<AluKind> {
            Some(match m {
                "add" => AluKind::Add,
                "sub" => AluKind::Sub,
                "mul" => AluKind::Mul,
                "and" => AluKind::And,
                "or" => AluKind::Or,
                "xor" => AluKind::Xor,
                "shl" => AluKind::Shl,
                "shr" => AluKind::Shr,
                "sltu" => AluKind::Sltu,
                _ => return None,
            })
        };
        let branch = |m: &str| -> Option<BranchKind> {
            Some(match m {
                "beq" => BranchKind::Eq,
                "bne" => BranchKind::Ne,
                "bltu" => BranchKind::Ltu,
                "bgeu" => BranchKind::Geu,
                _ => return None,
            })
        };
        match head.s {
            "li" => {
                Self::expect_arity(line, toks, 2, "li <dst>, <imm>")?;
                let dst = self.parse_reg(line, toks[1])?;
                let imm = self.parse_u64(line, toks[2])?;
                self.push_inst(Stmt::LoadImm { dst, imm });
            }
            "mv" => {
                Self::expect_arity(line, toks, 2, "mv <dst>, <src>")?;
                let dst = self.parse_reg(line, toks[1])?;
                let a = self.parse_reg(line, toks[2])?;
                self.push_inst(Stmt::AluImm {
                    kind: AluKind::Add,
                    dst,
                    a,
                    imm: 0,
                });
            }
            m if alu_rr(m).is_some() => {
                Self::expect_arity(line, toks, 3, "<op> <dst>, <a>, <b>")?;
                let kind = alu_rr(m).unwrap();
                let dst = self.parse_reg(line, toks[1])?;
                let a = self.parse_reg(line, toks[2])?;
                let b = self.parse_reg(line, toks[3])?;
                self.push_inst(Stmt::Alu { kind, dst, a, b });
            }
            m if m.len() > 1 && m.ends_with('i') && alu_rr(&m[..m.len() - 1]).is_some() => {
                Self::expect_arity(line, toks, 3, "<op>i <dst>, <a>, <imm>")?;
                let kind = alu_rr(&m[..m.len() - 1]).unwrap();
                let dst = self.parse_reg(line, toks[1])?;
                let a = self.parse_reg(line, toks[2])?;
                let imm = self.parse_u64(line, toks[3])?;
                self.push_inst(Stmt::AluImm { kind, dst, a, imm });
            }
            "ld" => {
                Self::expect_arity(line, toks, 2, "ld <dst>, [base+off]")?;
                let dst = self.parse_reg(line, toks[1])?;
                let (base, offset) = self.parse_mem(line, toks[2])?;
                self.push_inst(Stmt::Load { dst, base, offset });
            }
            "ldx" => {
                Self::expect_arity(line, toks, 2, "ldx <dst>, [base+index*8]")?;
                let dst = self.parse_reg(line, toks[1])?;
                let (base, index) = self.parse_mem_idx(line, toks[2])?;
                self.push_inst(Stmt::LoadIdx { dst, base, index });
            }
            "st" => {
                Self::expect_arity(line, toks, 2, "st <val>, [base+off]")?;
                let val = self.parse_reg(line, toks[1])?;
                let (base, offset) = self.parse_mem(line, toks[2])?;
                self.push_inst(Stmt::Store { val, base, offset });
            }
            "amoadd" => {
                Self::expect_arity(line, toks, 3, "amoadd <dst>, [base+off], <add>")?;
                let dst = self.parse_reg(line, toks[1])?;
                let (base, offset) = self.parse_mem(line, toks[2])?;
                let add = self.parse_reg(line, toks[3])?;
                self.push_inst(Stmt::AmoAdd {
                    dst,
                    base,
                    offset,
                    add,
                });
            }
            m if branch(m).is_some() => {
                Self::expect_arity(line, toks, 3, "<br> <a>, <b>, <label>")?;
                let kind = branch(m).unwrap();
                let a = self.parse_reg(line, toks[1])?;
                let b = self.parse_reg(line, toks[2])?;
                let target = Self::label_ref(line, toks[3]);
                self.push_inst(Stmt::Branch { kind, a, b, target });
            }
            "j" => {
                Self::expect_arity(line, toks, 1, "j <label>")?;
                let target = Self::label_ref(line, toks[1]);
                self.push_inst(Stmt::Jump { target });
            }
            "nop" => {
                Self::expect_arity(line, toks, 0, "nop")?;
                self.push_inst(Stmt::Nop);
            }
            "halt" => {
                Self::expect_arity(line, toks, 0, "halt")?;
                self.push_inst(Stmt::Halt);
            }
            other => {
                let mut msg = format!("unknown mnemonic '{other}'");
                if let Some(hint) = suggest(other, MNEMONICS.iter().copied()) {
                    msg.push_str(&format!(" (did you mean '{hint}'?)"));
                }
                return Err(AsmTextError::new(line, head.col, msg));
            }
        }
        Ok(())
    }
}

fn mem_inner<'b>(line: usize, tok: Tok<'b>) -> PResult<Tok<'b>> {
    let inner = tok
        .s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            AsmTextError::new(
                line,
                tok.col,
                format!(
                    "malformed memory operand '{}' (expected [base+off] with no spaces)",
                    tok.s
                ),
            )
        })?;
    if inner.is_empty() {
        return Err(AsmTextError::new(
            line,
            tok.col,
            "empty memory operand '[]'",
        ));
    }
    Ok(Tok {
        s: inner,
        col: tok.col + 1,
    })
}

fn parse_u64_tok(line: usize, tok: Tok<'_>) -> PResult<u64> {
    let (neg, digits) = match tok.s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok.s),
    };
    let parsed = match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) if !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16)
        }
        _ if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) => {
            digits.parse::<u64>()
        }
        _ => {
            return Err(AsmTextError::new(
                line,
                tok.col,
                format!("malformed number '{}'", tok.s),
            ))
        }
    };
    match parsed {
        Ok(v) => Ok(if neg { v.wrapping_neg() } else { v }),
        Err(_) => Err(AsmTextError::new(
            line,
            tok.col,
            format!("immediate '{}' overflows 64 bits", tok.s),
        )),
    }
}

fn parse_i64_tok(line: usize, tok: Tok<'_>) -> PResult<i64> {
    let (neg, digits) = match tok.s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => match tok.s.strip_prefix('+') {
            Some(rest) => (false, rest),
            None => (false, tok.s),
        },
    };
    let magnitude = parse_u64_tok(
        line,
        Tok {
            s: digits,
            col: tok.col + usize::from(digits.len() != tok.s.len()),
        },
    )?;
    let limit = if neg { 1u64 << 63 } else { i64::MAX as u64 };
    if magnitude > limit {
        return Err(AsmTextError::new(
            line,
            tok.col,
            format!("offset '{}' overflows a signed 64-bit offset", tok.s),
        ));
    }
    Ok(if neg {
        (magnitude as i64).wrapping_neg()
    } else {
        magnitude as i64
    })
}

/// Whether `name` is usable as a label or alias name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// Assembles recon assembly text into an [`AsmProgram`].
///
/// # Errors
///
/// Returns a line/column-diagnosed [`AsmTextError`] for any malformed
/// source: unknown mnemonics/registers/labels (with near-miss
/// suggestions), misaligned data, overflowing immediates, duplicate
/// labels, or a structurally invalid result (e.g. no `halt`).
pub fn assemble(src: &str) -> Result<AsmProgram, AsmTextError> {
    let mut p = Parser::new();

    // Alias pre-pass: aliases are position-independent so register
    // operands anywhere in the file can use them.
    for (no, raw) in src.lines().enumerate() {
        let line = no + 1;
        let toks = tokenize(strip_comment(raw));
        if toks.first().map(|t| t.s) != Some(".alias") {
            continue;
        }
        Parser::expect_arity(line, &toks, 2, ".alias <name> <reg>")?;
        let name = toks[1];
        if !valid_name(name.s) {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("invalid alias name '{}'", name.s),
            ));
        }
        if name.s == "zero"
            || MNEMONICS.contains(&name.s)
            || (name.s.starts_with('r')
                && name.s[1..].chars().all(|c| c.is_ascii_digit())
                && name.s.len() > 1)
        {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("alias '{}' shadows a register or mnemonic", name.s),
            ));
        }
        let reg = p.parse_reg(line, toks[2])?;
        if p.aliases.insert(name.s, reg).is_some() {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("alias '{}' defined twice", name.s),
            ));
        }
    }

    // Pass 1: structural parse. Counts instructions so label
    // definitions resolve to instruction indices.
    let mut last_line = 1;
    for (no, raw) in src.lines().enumerate() {
        let line = no + 1;
        last_line = line;
        let text = strip_comment(raw);
        let mut toks = tokenize(text);
        if toks.is_empty() {
            continue;
        }
        // Label definition(s): leading `name:` tokens.
        while let Some(head) = toks.first().copied() {
            let Some(name) = head.s.strip_suffix(':') else {
                break;
            };
            if !valid_name(name) {
                return Err(AsmTextError::new(
                    line,
                    head.col,
                    format!("invalid label name '{name}'"),
                ));
            }
            if p.label_defs
                .insert(name.to_string(), p.inst_count)
                .is_some()
            {
                return Err(AsmTextError::new(
                    line,
                    head.col,
                    format!("label '{name}' defined twice"),
                ));
            }
            p.label_order.push((name.to_string(), p.inst_count));
            p.stmts.push(Stmt::Bind(name.to_string()));
            toks.remove(0);
        }
        if toks.is_empty() {
            continue;
        }
        if toks[0].s.starts_with('.') {
            p.parse_directive(line, &toks)?;
        } else {
            p.parse_inst(line, &toks)?;
        }
    }

    // Resolve label references now so diagnostics carry use-site
    // line/col (the DSL's UnboundLabel would lose the position).
    let resolve = |r: &LabelRef, p: &Parser<'_>| -> PResult<()> {
        if p.label_defs.contains_key(&r.name) {
            return Ok(());
        }
        let mut msg = format!("unknown label '{}'", r.name);
        if let Some(hint) = suggest(&r.name, p.label_defs.keys().map(String::as_str)) {
            msg.push_str(&format!(" (did you mean '{hint}'?)"));
        }
        Err(AsmTextError::new(r.line, r.col, msg))
    };
    for stmt in &p.stmts {
        match stmt {
            Stmt::Branch { target, .. } | Stmt::Jump { target } => resolve(target, &p)?,
            _ => {}
        }
    }
    for (target, _) in &p.entries {
        resolve(target, &p)?;
        if p.label_defs[&target.name] >= p.inst_count {
            return Err(AsmTextError::new(
                target.line,
                target.col,
                format!(
                    "entry label '{}' is bound past the last instruction",
                    target.name
                ),
            ));
        }
    }

    // A label bound after the last instruction that is branched to
    // would produce an out-of-range target; diagnose it at the use.
    for stmt in &p.stmts {
        let target = match stmt {
            Stmt::Branch { target, .. } | Stmt::Jump { target } => target,
            _ => continue,
        };
        if p.label_defs[&target.name] >= p.inst_count {
            return Err(AsmTextError::new(
                target.line,
                target.col,
                format!(
                    "label '{}' is bound past the last instruction and cannot be a branch target",
                    target.name
                ),
            ));
        }
    }

    // Pass 2: emit through the Asm DSL.
    let mut a = Asm::new();
    let mut dsl_labels = HashMap::new();
    for (name, _) in &p.label_order {
        dsl_labels.insert(name.clone(), a.named_label(name.clone()));
    }
    for (addr, val) in &p.image {
        a.data(*addr, *val);
    }
    for stmt in &p.stmts {
        match stmt {
            Stmt::Bind(name) => {
                a.bind(dsl_labels[name]);
            }
            Stmt::LoadImm { dst, imm } => {
                a.li(*dst, *imm);
            }
            Stmt::Alu {
                kind,
                dst,
                a: ra,
                b,
            } => {
                a.alu(*kind, *dst, *ra, *b);
            }
            Stmt::AluImm {
                kind,
                dst,
                a: ra,
                imm,
            } => {
                a.alui(*kind, *dst, *ra, *imm);
            }
            Stmt::Load { dst, base, offset } => {
                a.load(*dst, *base, *offset);
            }
            Stmt::LoadIdx { dst, base, index } => {
                a.loadidx(*dst, *base, *index);
            }
            Stmt::Store { val, base, offset } => {
                a.store(*val, *base, *offset);
            }
            Stmt::AmoAdd {
                dst,
                base,
                offset,
                add,
            } => {
                a.amoadd(*dst, *base, *offset, *add);
            }
            Stmt::Branch {
                kind,
                a: ra,
                b,
                target,
            } => {
                let label = dsl_labels[&target.name];
                match kind {
                    BranchKind::Eq => a.beq(*ra, *b, label),
                    BranchKind::Ne => a.bne(*ra, *b, label),
                    BranchKind::Ltu => a.bltu(*ra, *b, label),
                    BranchKind::Geu => a.bgeu(*ra, *b, label),
                };
            }
            Stmt::Jump { target } => {
                a.jump(dsl_labels[&target.name]);
            }
            Stmt::Nop => {
                a.nop();
            }
            Stmt::Halt => {
                a.halt();
            }
        }
    }

    let mut program = a.assemble().map_err(|e| match e {
        AsmError::Invalid(ProgramError::MissingHalt) => {
            AsmTextError::new(last_line, 1, "program has no halt instruction")
        }
        // Unbound labels and out-of-range targets are diagnosed above
        // with use-site positions; anything else is a program-level
        // structural error without a single source position.
        other => AsmTextError::new(last_line, 1, format!("{other}")),
    })?;

    // Entry specs: default to a single seedless entry at instruction 0.
    let entries: Vec<EntrySpec> = if p.entries.is_empty() {
        vec![EntrySpec {
            entry: 0,
            seeds: Vec::new(),
        }]
    } else {
        p.entries
            .iter()
            .map(|(target, seeds)| EntrySpec {
                entry: p.label_defs[&target.name],
                seeds: seeds.clone(),
            })
            .collect()
    };
    program.entry = entries[0].entry;

    Ok(AsmProgram {
        program,
        entries,
        labels: p.label_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::Inst;

    #[test]
    fn assembles_a_minimal_program() {
        let p = assemble("main:\n    li r1, 42\n    halt\n").unwrap();
        assert_eq!(p.program.code.len(), 2);
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(1),
                imm: 42
            }
        );
        assert_eq!(
            p.entries,
            vec![EntrySpec {
                entry: 0,
                seeds: vec![]
            }]
        );
        assert_eq!(p.labels, vec![("main".to_string(), 0)]);
    }

    #[test]
    fn resolves_forward_and_backward_labels() {
        let src = "
top:
    subi r1, r1, 1
    bne r1, zero, top
    beq r0, r0, end
    nop
end:
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[1],
            Inst::Branch {
                kind: BranchKind::Ne,
                a: ArchReg::new(1),
                b: ArchReg::ZERO,
                target: 0
            }
        );
        assert_eq!(
            p.program.code[2],
            Inst::Branch {
                kind: BranchKind::Eq,
                a: ArchReg::ZERO,
                b: ArchReg::ZERO,
                target: 4
            }
        );
    }

    #[test]
    fn aliases_are_position_independent() {
        let src = "
    li acc, 7      # used before .alias appears
.alias acc r9
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(9),
                imm: 7
            }
        );
    }

    #[test]
    fn data_directives_populate_the_image() {
        let src = "
.data 0x100 0x2a
.words 0x200 1 2 3
.zero 0x300 2
    halt
";
        let p = assemble(src).unwrap();
        let img = &p.program.image;
        assert_eq!(img.get(0x100), Some(0x2a));
        assert_eq!(img.get(0x200), Some(1));
        assert_eq!(img.get(0x210), Some(3));
        assert_eq!(img.get(0x300), Some(0));
        assert_eq!(img.get(0x308), Some(0));
        assert_eq!(img.len(), 6);
    }

    #[test]
    fn entry_seeds_parse() {
        let src = "
.entry main r26=4 r5=0x10
    nop
main:
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(p.program.entry, 1);
        assert_eq!(
            p.entries,
            vec![EntrySpec {
                entry: 1,
                seeds: vec![(ArchReg::new(26), 4), (ArchReg::new(5), 0x10)]
            }]
        );
    }

    #[test]
    fn memory_operands_parse_all_forms() {
        let src = "
    ld r1, [r2]
    ld r1, [r2+0x10]
    st r1, [r2-8]
    ldx r3, [r1+r2*8]
    amoadd r4, [r5+16], r6
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::Load {
                dst: ArchReg::new(1),
                base: ArchReg::new(2),
                offset: 0
            }
        );
        assert_eq!(
            p.program.code[2],
            Inst::Store {
                val: ArchReg::new(1),
                base: ArchReg::new(2),
                offset: -8
            }
        );
        assert_eq!(
            p.program.code[3],
            Inst::LoadIdx {
                dst: ArchReg::new(3),
                base: ArchReg::new(1),
                index: ArchReg::new(2)
            }
        );
    }

    #[test]
    fn negative_immediates_wrap() {
        let p = assemble("    li r1, -1\n    halt\n").unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(1),
                imm: u64::MAX
            }
        );
    }

    #[test]
    fn unknown_label_reports_use_site_and_suggestion() {
        let err = assemble("    j epilog\nepilogue:\n    halt\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 7));
        assert!(err.msg.contains("unknown label 'epilog'"), "{}", err.msg);
        assert!(err.msg.contains("did you mean 'epilogue'"), "{}", err.msg);
    }

    #[test]
    fn unknown_mnemonic_suggests() {
        let err = assemble("    lii r1, 4\n    halt\n").unwrap_err();
        assert!(err.msg.contains("unknown mnemonic 'lii'"));
        assert!(err.msg.contains("did you mean 'li'"), "{}", err.msg);
    }

    #[test]
    fn suggest_respects_distance_cap() {
        assert_eq!(
            suggest("spec2107", ["spec2017", "parsec"]),
            Some("spec2017")
        );
        assert_eq!(suggest("zzzzzz", ["spec2017", "parsec"]), None);
        // A transposition is one edit: `mfc` is nearer `mcf` than `gcc`.
        assert_eq!(suggest("mfc", ["gcc", "mcf", "xz"]), Some("mcf"));
        assert_eq!(edit_distance("mfc", "mcf"), 1);
        assert_eq!(edit_distance("ab", "ba"), 1);
        assert_eq!(edit_distance("abc", "ca"), 3);
        // Ties go to the first name, whatever the candidates' order.
        assert_eq!(suggest("ldz", ["ldy", "ldx"]), Some("ldx"));
        assert_eq!(suggest("ldz", ["ldx", "ldy"]), Some("ldx"));
    }
}
