//! Text I/O in the `t/v/e` format used by the subgraph-matching community.
//!
//! The format (also used by the DAF / RapidMatch / SubgraphMatching repositories the
//! paper compares against) is line-oriented:
//!
//! ```text
//! t <num-vertices> <num-edges>
//! v <vertex-id> <label> [<degree>]
//! e <src> <dst> [<edge-label>]
//! ```
//!
//! Vertex ids must be `0..num-vertices`, and a vertex without a `v` line keeps label
//! 0; the optional degree / edge-label columns are ignored. `#`-prefixed lines and
//! blank lines are skipped.
//!
//! The parser is strict about the simple-graph contract the matcher relies on
//! (and that a persisted index would otherwise bake in):
//!
//! * exactly one `t` header, before any `v`/`e` line — a second header is a
//!   [`GraphParseError::DuplicateHeader`] (it used to silently reset the builder);
//! * the header's counts are checked before anything is sized by them: more
//!   edges than a simple graph on the declared vertices has (`n(n−1)/2`) is a
//!   [`GraphParseError::TooManyEdges`], and more vertices than
//!   [`MAX_QUERY_VERTICES`] for a query or `VertexId::MAX` for any graph (ids
//!   are [`VertexId`]s; `VertexId::MAX` is the stream's unmapped sentinel) a
//!   [`GraphParseError::TooManyVertices`]. Only the vertex count sizes an
//!   allocation: edges are stored as their `e` lines arrive, so a header that
//!   declares more edges than the file lists reserves nothing for them;
//! * the declared edge count must match the number of `e` lines
//!   ([`GraphParseError::EdgeCountMismatch`]);
//! * each undirected edge must be listed exactly once, in either orientation
//!   ([`GraphParseError::DuplicateEdge`]), and self loops are rejected
//!   ([`GraphParseError::SelfLoop`]) — the paper assumes simple graphs, and
//!   silently dropping such lines would let the edge count lie.
//!
//! [`write_graph`] emits the canonical form (each edge once, `a < b`), so every
//! written graph parses back.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::{Label, VertexId, MAX_QUERY_VERTICES};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors produced while parsing the text graph format.
#[derive(Debug)]
pub enum GraphParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A second `t` header appeared mid-file (it would silently discard every
    /// vertex and edge read so far).
    DuplicateHeader {
        /// 1-based line number of the second header.
        line: usize,
    },
    /// The `t` header declares more edges than a simple graph on its vertices
    /// has (`n(n−1)/2`). Checked before the builder is sized by the header.
    TooManyEdges {
        /// 1-based line number of the header.
        line: usize,
        /// Declared vertex count.
        vertices: usize,
        /// Declared edge count.
        edges: usize,
    },
    /// The `t` header declares more vertices than the graph may have: a query
    /// ([`parse_query_graph`]) more than [`MAX_QUERY_VERTICES`], any graph
    /// ([`read_graph`]) more than `VertexId::MAX`. Checked before the builder is
    /// sized by the header.
    TooManyVertices {
        /// 1-based line number of the header.
        line: usize,
        /// Declared vertex count.
        vertices: usize,
        /// The bound that was exceeded.
        limit: usize,
    },
    /// The number of `e` lines does not match the count declared on the `t` header.
    EdgeCountMismatch {
        /// Edge count declared on the `t` header.
        declared: usize,
        /// Number of `e` lines actually present.
        found: usize,
    },
    /// An `e` line connects a vertex to itself (the format describes simple graphs).
    SelfLoop {
        /// 1-based line number of the offending line.
        line: usize,
        /// The vertex carrying the loop.
        vertex: usize,
    },
    /// The same undirected edge was listed twice (in either orientation).
    DuplicateEdge {
        /// 1-based line number of the second listing.
        line: usize,
        /// Source vertex as written on the duplicate line.
        src: usize,
        /// Destination vertex as written on the duplicate line.
        dst: usize,
    },
}

impl std::fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphParseError::Io(e) => write!(f, "I/O error while reading graph: {e}"),
            GraphParseError::Malformed { line, message } => {
                write!(f, "malformed graph file at line {line}: {message}")
            }
            GraphParseError::DuplicateHeader { line } => {
                write!(f, "duplicate 't' header at line {line}")
            }
            GraphParseError::TooManyEdges {
                line,
                vertices,
                edges,
            } => write!(
                f,
                "header at line {line} declares {edges} edges, more than a simple graph \
                 on {vertices} vertices has"
            ),
            GraphParseError::TooManyVertices {
                line,
                vertices,
                limit,
            } => write!(
                f,
                "header at line {line} declares {vertices} vertices; this graph may have at most \
                 {limit}"
            ),
            GraphParseError::EdgeCountMismatch { declared, found } => write!(
                f,
                "header declares {declared} edges but the file lists {found}"
            ),
            GraphParseError::SelfLoop { line, vertex } => {
                write!(f, "self loop on vertex {vertex} at line {line}")
            }
            GraphParseError::DuplicateEdge { line, src, dst } => {
                write!(f, "duplicate edge ({src}, {dst}) at line {line}")
            }
        }
    }
}

impl std::error::Error for GraphParseError {}

impl From<std::io::Error> for GraphParseError {
    fn from(e: std::io::Error) -> Self {
        GraphParseError::Io(e)
    }
}

fn malformed(line: usize, message: impl Into<String>) -> GraphParseError {
    GraphParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// Parses a graph from any reader in the `t/v/e` format. A header declaring more
/// than `VertexId::MAX` vertices is rejected before anything is allocated.
pub fn read_graph<R: Read>(reader: R) -> Result<Graph, GraphParseError> {
    read_graph_bounded(reader, VertexId::MAX as usize)
}

/// Parses a query graph from a string in the `t/v/e` format: [`parse_graph`],
/// except that a header declaring more than [`MAX_QUERY_VERTICES`] vertices is
/// rejected before anything is allocated.
pub fn parse_query_graph(text: &str) -> Result<Graph, GraphParseError> {
    read_graph_bounded(text.as_bytes(), MAX_QUERY_VERTICES)
}

/// The one parser behind [`read_graph`] and [`parse_query_graph`]: a header
/// declaring more than `max_vertices` vertices is a
/// [`GraphParseError::TooManyVertices`].
fn read_graph_bounded<R: Read>(reader: R, max_vertices: usize) -> Result<Graph, GraphParseError> {
    let reader = BufReader::new(reader);
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_vertices = 0usize;
    let mut declared_edges = 0usize;
    let mut edges_listed = 0usize;
    let mut seen_edges: std::collections::HashSet<(VertexId, VertexId)> =
        std::collections::HashSet::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("t") => {
                if builder.is_some() {
                    return Err(GraphParseError::DuplicateHeader { line: lineno });
                }
                let nv: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing vertex count"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "vertex count is not an integer"))?;
                let ne: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing edge count"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "edge count is not an integer"))?;
                if nv > max_vertices {
                    return Err(GraphParseError::TooManyVertices {
                        line: lineno,
                        vertices: nv,
                        limit: max_vertices,
                    });
                }
                // n(n−1)/2 in u128: it overflows usize for large n.
                if ne as u128 > nv as u128 * nv.saturating_sub(1) as u128 / 2 {
                    return Err(GraphParseError::TooManyEdges {
                        line: lineno,
                        vertices: nv,
                        edges: ne,
                    });
                }
                // No edge capacity from the header: `ne` may be as large as
                // n(n−1)/2 while the file lists far fewer `e` lines.
                let mut b = GraphBuilder::new();
                b.add_vertices(nv, 0);
                declared_vertices = nv;
                declared_edges = ne;
                builder = Some(b);
            }
            Some("v") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| malformed(lineno, "'v' line before 't' header"))?;
                let id: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing vertex id"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "vertex id is not an integer"))?;
                let label: Label = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing vertex label"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "vertex label is not an integer"))?;
                if id >= declared_vertices {
                    return Err(malformed(
                        lineno,
                        format!("vertex id {id} out of declared range {declared_vertices}"),
                    ));
                }
                b.set_label(id as VertexId, label);
            }
            Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| malformed(lineno, "'e' line before 't' header"))?;
                let src: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing edge source"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "edge source is not an integer"))?;
                let dst: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "missing edge destination"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "edge destination is not an integer"))?;
                if src >= declared_vertices || dst >= declared_vertices {
                    return Err(malformed(lineno, "edge endpoint out of range"));
                }
                if src == dst {
                    return Err(GraphParseError::SelfLoop {
                        line: lineno,
                        vertex: src,
                    });
                }
                let key = (src.min(dst) as VertexId, src.max(dst) as VertexId);
                if !seen_edges.insert(key) {
                    return Err(GraphParseError::DuplicateEdge {
                        line: lineno,
                        src,
                        dst,
                    });
                }
                edges_listed += 1;
                b.add_edge(src as VertexId, dst as VertexId);
            }
            Some(other) => {
                return Err(malformed(lineno, format!("unknown record type '{other}'")));
            }
            None => unreachable!("empty lines are skipped above"),
        }
    }
    let builder = builder.ok_or_else(|| malformed(0, "no 't' header found"))?;
    if edges_listed != declared_edges {
        return Err(GraphParseError::EdgeCountMismatch {
            declared: declared_edges,
            found: edges_listed,
        });
    }
    Ok(builder.build())
}

/// Parses a graph from a string in the `t/v/e` format.
pub fn parse_graph(text: &str) -> Result<Graph, GraphParseError> {
    read_graph(text.as_bytes())
}

/// Loads a graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph, GraphParseError> {
    let file = std::fs::File::open(path)?;
    read_graph(file)
}

/// Serializes a graph into the `t/v/e` format.
pub fn write_graph<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "t {} {}", g.vertex_count(), g.edge_count())?;
    for v in g.vertices() {
        writeln!(writer, "v {} {} {}", v, g.label(v), g.degree(v))?;
    }
    for (a, b) in g.edges() {
        writeln!(writer, "e {a} {b}")?;
    }
    Ok(())
}

/// Serializes a graph into a `String` in the `t/v/e` format.
pub fn graph_to_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(g, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format output is ASCII")
}

/// Saves a graph to a file path.
pub fn save_graph<P: AsRef<Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_graph(g, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    const SAMPLE: &str = "\
# a triangle plus an isolated vertex
t 4 3
v 0 5 2
v 1 5 2
v 2 7 2
v 3 9 0

e 0 1
e 1 2
e 2 0
";

    #[test]
    fn parse_sample() {
        let g = parse_graph(SAMPLE).unwrap();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.label(0), 5);
        assert_eq!(g.label(2), 7);
        assert_eq!(g.label(3), 9);
        assert!(g.has_edge(0, 2));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn roundtrip_through_text() {
        let g = graph_from_edges(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let text = graph_to_string(&g);
        let back = parse_graph(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn vertices_without_v_lines_default_to_label_zero() {
        let g = parse_graph("t 2 1\ne 0 1\n").unwrap();
        assert_eq!(g.label(0), 0);
        assert_eq!(g.label(1), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn error_on_missing_header() {
        let err = parse_graph("v 0 1\n").unwrap_err();
        assert!(matches!(err, GraphParseError::Malformed { line: 1, .. }));
        let err = parse_graph("").unwrap_err();
        assert!(matches!(err, GraphParseError::Malformed { line: 0, .. }));
    }

    #[test]
    fn error_on_out_of_range_ids() {
        let err = parse_graph("t 2 1\nv 5 0\n").unwrap_err();
        assert!(matches!(err, GraphParseError::Malformed { line: 2, .. }));
        let err = parse_graph("t 2 1\ne 0 7\n").unwrap_err();
        assert!(matches!(err, GraphParseError::Malformed { line: 2, .. }));
    }

    #[test]
    fn error_on_garbage() {
        let err = parse_graph("t 2 1\nx 1 2\n").unwrap_err();
        match err {
            GraphParseError::Malformed { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unknown record type"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse_graph("t x y\n").unwrap_err();
        assert!(matches!(err, GraphParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn error_on_duplicate_header() {
        // Pre-fix, the second 't' silently discarded the triangle read so far.
        let err = parse_graph("t 3 1\ne 0 1\nt 3 0\n").unwrap_err();
        assert!(matches!(err, GraphParseError::DuplicateHeader { line: 3 }));
    }

    #[test]
    fn error_on_edge_count_mismatch() {
        // Pre-fix, the declared count was parsed into `_ne` and never checked.
        let err = parse_graph("t 3 2\ne 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::EdgeCountMismatch {
                declared: 2,
                found: 1
            }
        ));
        let err = parse_graph("t 3 0\ne 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::EdgeCountMismatch {
                declared: 0,
                found: 1
            }
        ));
    }

    #[test]
    fn error_on_self_loop() {
        let err = parse_graph("t 2 1\ne 1 1\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::SelfLoop { line: 2, vertex: 1 }
        ));
    }

    #[test]
    fn error_on_duplicate_edge_either_orientation() {
        // Three vertices, so the header's two edges pass the n(n-1)/2 bound.
        let err = parse_graph("t 3 2\ne 0 1\ne 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::DuplicateEdge {
                line: 3,
                src: 0,
                dst: 1
            }
        ));
        // The reversed orientation names the same undirected edge.
        let err = parse_graph("t 3 2\ne 0 1\ne 1 0\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::DuplicateEdge {
                line: 3,
                src: 1,
                dst: 0
            }
        ));
    }

    #[test]
    fn strict_error_display_mentions_specifics() {
        let err = parse_graph("t 3 2\ne 0 1\n").unwrap_err();
        assert!(format!("{err}").contains("declares 2 edges"));
        let err = parse_graph("t 2 1\ne 1 1\n").unwrap_err();
        assert!(format!("{err}").contains("self loop"));
    }

    #[test]
    fn header_counts_are_bounded_before_allocating() {
        // A simple graph on 3 vertices has at most 3 edges.
        let err = parse_graph("t 3 4\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::TooManyEdges {
                line: 1,
                vertices: 3,
                edges: 4
            }
        ));
        assert!(format!("{err}").contains("4 edges"));
        assert!(parse_graph("t 3 3\ne 0 1\ne 1 2\ne 2 0\n").is_ok());
        // Counts whose n(n-1)/2 overflows usize, or whose capacity would abort.
        let err = parse_graph("t 2 100000000000\n").unwrap_err();
        assert!(matches!(err, GraphParseError::TooManyEdges { .. }));
        assert!(matches!(
            parse_graph("t 1 1\n").unwrap_err(),
            GraphParseError::TooManyEdges { .. }
        ));
        assert!(matches!(
            parse_graph("t 0 1\n").unwrap_err(),
            GraphParseError::TooManyEdges { .. }
        ));
        // A header within the n(n-1)/2 bound reserves no edges: 4,999,950,000
        // declared edges (40 GB of edge pairs) with none listed is a mismatch,
        // not an allocation.
        let err = parse_graph("t 100000 4999950000\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::EdgeCountMismatch {
                declared: 4_999_950_000,
                found: 0
            }
        ));

        // A query has at most MAX_QUERY_VERTICES vertices.
        let err = parse_query_graph("t 257 0\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::TooManyVertices {
                line: 1,
                vertices: 257,
                limit: MAX_QUERY_VERTICES
            }
        ));
        assert!(format!("{err}").contains("at most 256"));
        assert_eq!(parse_query_graph("t 256 0\n").unwrap().vertex_count(), 256);
        let err = parse_query_graph("# huge\nt 40000000000 1\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::TooManyVertices { line: 2, .. }
        ));
        // A data graph's bound is the vertex-id range: 40 billion vertices would
        // size a 160 GB builder.
        let err = parse_graph("t 40000000000 0\n").unwrap_err();
        assert!(matches!(
            err,
            GraphParseError::TooManyVertices {
                line: 1,
                vertices: 40_000_000_000,
                limit
            } if limit == VertexId::MAX as usize
        ));
        assert!(format!("{err}").contains("at most 4294967295"), "{err}");
        assert_eq!(parse_graph("t 257 0\n").unwrap().vertex_count(), 257);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gup_graph_io_test_{}.graph", std::process::id()));
        let g = graph_from_edges(&[3, 3, 4], &[(0, 1), (1, 2)]);
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, back);
    }

    #[test]
    fn display_of_errors_mentions_line() {
        let err = parse_graph("t 1 0\nv bad 0\n").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 2"));
    }
}
