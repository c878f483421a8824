//! Matrix Market (`.mtx`) I/O for sparse matrices.
//!
//! The paper's datasets ship as edge lists / sparse matrices; Matrix
//! Market is the lingua franca (SuiteSparse, HipMCL, OGB converters all
//! speak it). Supported flavors: `matrix coordinate
//! real|pattern|integer general|symmetric`, 1-based indices, `%` comments.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::coo::Coo;
use crate::csr::Csr;

/// I/O or format error.
#[derive(Debug)]
pub enum MtxError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with a human-readable reason.
    Parse(String),
}

impl std::fmt::Display for MtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "mtx io error: {e}"),
            MtxError::Parse(m) => write!(f, "mtx parse error: {m}"),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MtxError {
    MtxError::Parse(msg.into())
}

/// Reads a Matrix Market file into CSR.
///
/// `symmetric` files are expanded (each off-diagonal entry mirrored);
/// `pattern` files get unit values. Duplicate entries are summed. A file
/// that is malformed in any way — including a size line that claims
/// more than the file holds — is a [`MtxError::Parse`], never a panic.
pub fn read_mtx(path: &Path) -> Result<Csr, MtxError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    parse_mtx(BufReader::new(file), len)
}

/// Shortest entry line, `"r c\n"`: a file of `len` bytes holds at most
/// `len / MIN_ENTRY_BYTES + 1` entries, whatever its size line claims.
const MIN_ENTRY_BYTES: u64 = 4;

/// [`read_mtx`] on the bytes of a file `len` bytes long (`len` only
/// bounds the up-front reservation).
fn parse_mtx(mut reader: impl BufRead, len: u64) -> Result<Csr, MtxError> {
    let mut line = String::new();

    // Header.
    reader.read_line(&mut line)?;
    let header = line.trim().to_ascii_lowercase();
    if !header.starts_with("%%matrixmarket matrix coordinate") {
        return Err(parse_err(format!("unsupported header: {header}")));
    }
    let pattern = header.contains(" pattern");
    let symmetric = header.contains(" symmetric");
    if !header.contains(" general") && !symmetric {
        return Err(parse_err(
            "only 'general' and 'symmetric' layouts supported",
        ));
    }

    // Size line (skipping comments).
    let (rows, cols, nnz) = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(parse_err("missing size line"));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let rows: usize = it
            .next()
            .ok_or_else(|| parse_err("size line too short"))?
            .parse()
            .map_err(|e| parse_err(format!("bad row count: {e}")))?;
        let cols: usize = it
            .next()
            .ok_or_else(|| parse_err("size line too short"))?
            .parse()
            .map_err(|e| parse_err(format!("bad col count: {e}")))?;
        let nnz: usize = it
            .next()
            .ok_or_else(|| parse_err("size line too short"))?
            .parse()
            .map_err(|e| parse_err(format!("bad nnz count: {e}")))?;
        break (rows, cols, nnz);
    };
    if u32::try_from(rows.max(cols)).is_err() {
        return Err(parse_err(format!(
            "{rows} x {cols} exceeds the {} row/column limit",
            u32::MAX
        )));
    }
    if symmetric && rows != cols {
        return Err(parse_err(format!("symmetric matrix is {rows} x {cols}")));
    }

    let fits = usize::try_from(len / MIN_ENTRY_BYTES + 1).unwrap_or(usize::MAX);
    let mirrored = if symmetric { 2 } else { 1 };
    let mut coo = Coo::with_capacity(rows, cols, nnz.min(fits).saturating_mul(mirrored));
    let mut seen = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("entry line too short"))?
            .parse()
            .map_err(|e| parse_err(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("entry line too short"))?
            .parse()
            .map_err(|e| parse_err(format!("bad col index: {e}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|e| parse_err(format!("bad value: {e}")))?
        };
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(format!("index ({r}, {c}) out of bounds")));
        }
        coo.push(r - 1, c - 1, v);
        if symmetric && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Writes a CSR matrix as `matrix coordinate real general` (1-based).
pub fn write_mtx(path: &Path, m: &Csr) -> Result<(), MtxError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by dist-gnn spmat")?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {v}", r + 1, c + 1)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spmat-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = grid2d(6);
        let path = tmp("roundtrip.mtx");
        write_mtx(&path, &m).unwrap();
        let back = read_mtx(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reads_symmetric_pattern() {
        let path = tmp("sym.mtx");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "%%MatrixMarket matrix coordinate pattern symmetric").unwrap();
        writeln!(f, "% a triangle").unwrap();
        writeln!(f, "3 3 3").unwrap();
        writeln!(f, "2 1").unwrap();
        writeln!(f, "3 1").unwrap();
        writeln!(f, "3 2").unwrap();
        drop(f);
        let m = read_mtx(&path).unwrap();
        assert_eq!(m.nnz(), 6);
        assert!(m.is_symmetric());
        assert_eq!(m.get(0, 1), Some(1.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        let path = tmp("bad.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n",
        )
        .unwrap();
        assert!(matches!(read_mtx(&path), Err(MtxError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_bounds_index() {
        let path = tmp("oob.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        )
        .unwrap();
        assert!(matches!(read_mtx(&path), Err(MtxError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let path = tmp("trunc.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        )
        .unwrap();
        assert!(matches!(read_mtx(&path), Err(MtxError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    /// Size lines that overflow `Coo`, the reservation or `2 · nnz`: each
    /// is a parse error before anything of that size is allocated.
    #[test]
    fn rejects_huge_and_overflowing_counts() {
        for text in [
            "%%MatrixMarket matrix coordinate real general\n4294967296 2 1\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 4294967296 1\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000000\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n4294967295 4294967295 18446744073709551615\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 18446744073709551615\n2 1\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 9223372036854775808\n2 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551616\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 3\n",
        ] {
            let got = parse_mtx(text.as_bytes(), text.len() as u64);
            assert!(matches!(got, Err(MtxError::Parse(_))), "{text:?}: {got:?}");
        }
    }

    /// Every prefix and every single-byte mutation of two valid files
    /// parses to `Ok` or `Err`; none panics.
    #[test]
    fn mutated_files_never_panic() {
        let files = [
            "%%MatrixMarket matrix coordinate real general\n% c\n3 4 3\n1 1 1.5\n3 4 -2e3\n2 2 7\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 3\n",
        ];
        for text in files {
            let bytes = text.as_bytes();
            assert!(parse_mtx(bytes, bytes.len() as u64).is_ok(), "{text:?}");
            for cut in 0..bytes.len() {
                let _ = parse_mtx(&bytes[..cut], cut as u64);
            }
            for at in 0..bytes.len() {
                for flip in [0x01, 0x08, 0x10, 0x20, 0x80] {
                    let mut m = bytes.to_vec();
                    m[at] ^= flip;
                    let _ = parse_mtx(&m[..], m.len() as u64);
                }
                for put in [b'0', b'9', b' ', b'\n', b'-', b'%', 0xff] {
                    let mut m = bytes.to_vec();
                    m[at] = put;
                    let _ = parse_mtx(&m[..], m.len() as u64);
                }
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_mtx(Path::new("/nonexistent/x.mtx")),
            Err(MtxError::Io(_))
        ));
    }
}
