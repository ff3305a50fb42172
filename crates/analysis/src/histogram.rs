//! Series sparklines for terminal figures.
//!
//! Experiment "figures" are printed, not plotted: [`sparkline`]
//! compresses a series into one line of block characters — enough to
//! eyeball the shape of a convergence curve in CI logs.

/// Renders a numeric series as a single-line sparkline using the eight
/// block glyphs `▁▂▃▄▅▆▇█`. Empty input yields an empty string.
///
/// # Examples
///
/// ```
/// use hh_analysis::sparkline;
///
/// let line = sparkline(&[0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(line.chars().count(), 4);
/// assert!(line.starts_with('▁'));
/// assert!(line.ends_with('█'));
/// ```
#[must_use]
pub fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(hi - lo).is_normal() {
        return GLYPHS[0].to_string().repeat(series.len());
    }
    series
        .iter()
        .map(|&v| {
            let idx = ((v - lo) / (hi - lo) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]).chars().count(), 3);
        let line = sparkline(&[0.0, 7.0]);
        assert_eq!(line, "▁█");
    }

    #[test]
    fn sparkline_handles_constant_series() {
        let line = sparkline(&[3.0; 5]);
        assert_eq!(line.chars().count(), 5);
    }
}
