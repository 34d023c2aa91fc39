//! A frozen frame-only Tarjan, std only: every vertex gets a DFS frame,
//! sinks included, roots go in vertex order and arcs in stored order.
//! The one reference decomposition of the workspace: the knot-analysis
//! reference (`tests/common`) and `scc.rs`'s unit tests both read it.

/// Tarjan's components of the subgraph of `adj` induced on `lo..n`, as if
/// every vertex below `lo` (and every arc touching one) were absent:
/// `(comp_of, components in emission order)`. `comp_of` is 0 below `lo`.
pub fn frozen_tarjan(adj: &[Vec<u32>], lo: u32) -> (Vec<u32>, Vec<Vec<u32>>) {
    const UNVISITED: u32 = u32::MAX;
    let n = adj.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    let mut comp_of = vec![0; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut next = 0;
    for start in lo..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next;
        lowlink[start as usize] = next;
        next += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let outs = &adj[v as usize];
            if *ei < outs.len() {
                let w = outs[*ei];
                *ei += 1;
                if w < lo {
                    continue;
                }
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next;
                    lowlink[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comps.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    (comp_of, comps)
}
