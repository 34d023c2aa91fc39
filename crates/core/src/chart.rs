//! Terminal (ASCII) charts for the regenerated figures.
//!
//! The paper's results are line plots (normalized deadlocks vs load, set
//! sizes vs load, ...); the `repro` binary renders the same series as
//! scatter charts so the shape — who wins, where the knees fall — is
//! visible without leaving the terminal.

/// One plotted series: symbol, legend label, and (x, y) points.
type Series = (char, String, Vec<(f64, f64)>);

/// Plot-area width in characters.
const WIDTH: usize = 64;
/// Plot-area height in rows.
const HEIGHT: usize = 16;

/// A fixed-size scatter chart with one symbol per series.
#[derive(Clone, Debug)]
pub struct AsciiChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl AsciiChart {
    /// A chart with a 64×16 plot area.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        AsciiChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a named series drawn with `symbol`.
    pub fn series(
        &mut self,
        symbol: char,
        name: impl Into<String>,
        points: Vec<(f64, f64)>,
    ) -> &mut Self {
        self.series.push((symbol, name.into(), points));
        self
    }

    /// Renders the chart, or a placeholder when no finite data exists.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, _, p)| p.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            return format!("{} — (no data)\n", self.title);
        }
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        // Degenerate ranges widen to render a flat line mid-plot.
        if x_max == x_min {
            x_max = x_min + 1.0;
        }
        if y_max == y_min {
            y_max = y_min + 1.0;
        }

        let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
        for (symbol, _, points) in &self.series {
            for &(x, y) in points {
                if !x.is_finite() || !y.is_finite() {
                    continue;
                }
                let cx = ((x - x_min) / (x_max - x_min) * (WIDTH - 1) as f64).round() as usize;
                let cy = ((y - y_min) / (y_max - y_min) * (HEIGHT - 1) as f64).round() as usize;
                let row = HEIGHT - 1 - cy;
                let cell = &mut grid[row][cx];
                *cell = if *cell == ' ' || *cell == *symbol {
                    *symbol
                } else {
                    '#' // collision between series
                };
            }
        }

        let ylab_w = 10;
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{:>9.3}", y_max)
            } else if i == HEIGHT - 1 {
                format!("{:>9.3}", y_min)
            } else {
                " ".repeat(9)
            };
            out.push_str(&format!("{label} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(ylab_w));
        out.push('+');
        out.push_str(&"-".repeat(WIDTH));
        out.push('\n');
        out.push_str(&format!(
            "{}{:<12.3}{:>w$.3}\n",
            " ".repeat(ylab_w),
            x_min,
            x_max,
            w = WIDTH - 12
        ));
        out.push_str(&format!(
            "{}x: {}   y: {}\n",
            " ".repeat(ylab_w),
            self.x_label,
            self.y_label
        ));
        let legend: Vec<String> = self
            .series
            .iter()
            .map(|(s, name, _)| format!("{s} {name}"))
            .collect();
        out.push_str(&format!(
            "{}legend: {}\n",
            " ".repeat(ylab_w),
            legend.join("  ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_and_legend() {
        let mut c = AsciiChart::new("test", "load", "ndl");
        c.series('o', "bi", vec![(0.0, 0.0), (1.0, 1.0)]);
        c.series('+', "uni", vec![(0.5, 0.5)]);
        let s = c.render();
        assert!(s.contains("test"));
        assert!(s.contains('o'));
        assert!(s.contains('+'));
        assert!(s.contains("legend: o bi  + uni"));
        assert!(s.contains("x: load   y: ndl"));
    }

    #[test]
    fn empty_chart_is_placeholder() {
        let c = AsciiChart::new("empty", "x", "y");
        assert!(c.render().contains("(no data)"));
    }

    #[test]
    fn constant_series_renders() {
        let mut c = AsciiChart::new("flat", "x", "y");
        c.series('*', "zero", vec![(0.0, 0.0), (1.0, 0.0)]);
        let s = c.render();
        assert!(s.contains('*'));
    }

    #[test]
    fn collisions_marked() {
        let mut c = AsciiChart::new("overlap", "x", "y");
        c.series('o', "a", vec![(0.0, 0.0)]);
        c.series('+', "b", vec![(0.0, 0.0)]);
        assert!(c.render().contains('#'));
    }

    #[test]
    fn infinite_values_ignored() {
        let mut c = AsciiChart::new("inf", "x", "y");
        c.series('o', "a", vec![(0.0, f64::INFINITY), (1.0, 2.0)]);
        let s = c.render();
        assert!(s.contains('o'));
    }
}
