//! Graphviz (DOT) rendering of channel wait-for graphs.

use crate::adjacency::Adjacency;
use crate::analysis::Analysis;
use crate::graph::WaitGraph;
use std::collections::HashSet;
use std::fmt::Write;

/// Escapes a string for use inside a double-quoted DOT attribute value:
/// backslashes and quotes are escaped, newlines become DOT line breaks.
/// Without this, a graph title taken from an arbitrary config label (which
/// may contain quotes) would produce syntactically invalid DOT.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

impl WaitGraph {
    /// Renders the CWG in Graphviz DOT format, in the visual language of
    /// the paper's figures: solid arcs for ownership order, dashed arcs
    /// for requests, arcs labelled with their message. When an
    /// [`Analysis`] is supplied, knot vertices are shaded so deadlocks
    /// stand out.
    ///
    /// Only vertices that participate (owned, requested, or connected)
    /// are emitted; CWG snapshots are mostly empty space.
    pub fn to_dot(&self, analysis: Option<&Analysis>) -> String {
        self.to_dot_titled("", analysis)
    }

    /// [`to_dot`](Self::to_dot) with a graph title — the form incident
    /// artifacts use, titling the graph with the run's config label and
    /// capture cycle. The title is escaped, so arbitrary config labels
    /// always yield valid DOT.
    pub fn to_dot_titled(&self, title: &str, analysis: Option<&Analysis>) -> String {
        let knot: HashSet<u32> = analysis
            .map(|a| {
                a.deadlocks
                    .iter()
                    .flat_map(|d| d.knot.iter().copied())
                    .collect()
            })
            .unwrap_or_default();

        let mut used: HashSet<u32> = HashSet::new();
        // Arcs only leave owned vertices.
        for v in 0..self.num_vertices() as u32 {
            if self.owner(v).is_some() {
                used.insert(v);
                used.extend(self.neighbors(v));
            }
        }
        let mut vertices: Vec<u32> = used.into_iter().collect();
        vertices.sort_unstable();

        let mut out = String::from("digraph cwg {\n  rankdir=LR;\n  node [shape=circle];\n");
        if !title.is_empty() {
            let _ = writeln!(out, "  label=\"{}\";\n  labelloc=t;", dot_escape(title));
        }
        for &v in &vertices {
            let mut attrs = String::new();
            if knot.contains(&v) {
                attrs.push_str(" style=filled fillcolor=lightcoral");
            }
            let label = match self.owner(v) {
                Some(m) => format!("c{v}\nm{m}"),
                None => format!("c{v}\nfree"),
            };
            let _ = writeln!(out, "  v{v} [label=\"{}\"{attrs}];", dot_escape(&label));
        }
        for &v in &vertices {
            let Some(slot) = self.slot_of(v) else {
                continue;
            };
            // A head's arcs are its owner's requests; an interior's one arc
            // is the owner's next chain vertex.
            let style = if self.slot_chain(slot).last() == Some(&v) {
                "dashed"
            } else {
                "solid"
            };
            let m = self.slot_id(slot);
            for &w in self.neighbors(v) {
                let _ = writeln!(out, "  v{v} -> v{w} [style={style} label=\"m{m}\"];");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deadlocked() -> WaitGraph {
        let mut g = WaitGraph::new(6);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        g
    }

    #[test]
    fn renders_solid_and_dashed_edges() {
        let g = deadlocked();
        let dot = g.to_dot(None);
        assert!(dot.starts_with("digraph cwg {"));
        assert!(dot.contains("v0 -> v1 [style=solid label=\"m1\"]"));
        assert!(dot.contains("v1 -> v2 [style=dashed label=\"m1\"]"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn highlights_knot_with_analysis() {
        let g = deadlocked();
        let a = g.analyze(100);
        let dot = g.to_dot(Some(&a));
        assert!(dot.contains("fillcolor=lightcoral"));
    }

    #[test]
    fn skips_untouched_vertices() {
        let g = deadlocked(); // vertices 4,5 unused
        let dot = g.to_dot(None);
        assert!(!dot.contains("v4 "));
        assert!(!dot.contains("v5 "));
    }

    #[test]
    fn requested_free_vertex_labelled_free() {
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0]);
        g.add_requests(1, &[3]);
        let dot = g.to_dot(None);
        assert!(dot.contains("v3 [label=\"c3\\nfree\"]"));
    }

    #[test]
    fn title_with_quotes_and_backslashes_is_escaped() {
        let g = deadlocked();
        let dot = g.to_dot_titled("uni-8ary2 \"DOR\" vc=1 \\ load=1.00\ncycle 1450", None);
        assert!(dot.contains("label=\"uni-8ary2 \\\"DOR\\\" vc=1 \\\\ load=1.00\\ncycle 1450\";"));
        // Every quote in the output is balanced: an unescaped interior
        // quote would make the count of raw-quote boundaries odd.
        let unescaped = dot.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }

    #[test]
    fn untitled_output_has_no_graph_label() {
        let dot = deadlocked().to_dot(None);
        assert!(!dot.contains("label=\"\";"));
        assert!(!dot.contains("labelloc"));
    }
}
