//! Ready-made mappers and reducers used by tests, examples and the EARL
//! built-in analytics tasks.

use crate::types::{MapContext, Mapper, ReduceContext, Reducer};

/// Emits `(token, 1)` for every whitespace-separated token of the input line.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenCountMapper;

impl Mapper for TokenCountMapper {
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<String, u64>) {
        for token in line.split_whitespace() {
            ctx.emit(token.to_owned(), 1);
        }
    }
}

/// Sums the counts of each word: the classic word-count reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCountReducer;

impl Reducer for WordCountReducer {
    type InKey = String;
    type InValue = u64;
    type Output = (String, u64);
    fn reduce(&self, key: &String, values: &[u64], ctx: &mut ReduceContext<(String, u64)>) {
        ctx.emit((key.clone(), values.iter().sum()));
    }
}

/// Parses each line as a single `f64` value (optionally the last tab-separated
/// field) and emits it under a single key, funnelling all values to one
/// reducer — the access pattern of the paper's mean/median experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueExtractMapper;

impl Mapper for ValueExtractMapper {
    type OutKey = u32;
    type OutValue = f64;
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<u32, f64>) {
        let field = line.rsplit('\t').next().unwrap_or(line).trim();
        if let Ok(value) = field.parse::<f64>() {
            ctx.emit(0, value);
        }
    }
}

/// Computes the arithmetic mean of all values of a key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanReducer;

impl Reducer for MeanReducer {
    type InKey = u32;
    type InValue = f64;
    type Output = f64;
    fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
        if values.is_empty() {
            return;
        }
        ctx.emit(values.iter().sum::<f64>() / values.len() as f64);
    }
}

/// Computes the sum of all values of a key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumReducer;

impl Reducer for SumReducer {
    type InKey = u32;
    type InValue = f64;
    type Output = f64;
    fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
        ctx.emit(values.iter().sum());
    }
}

/// Computes the exact median of all values of a key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianReducer;

impl Reducer for MedianReducer {
    type InKey = u32;
    type InValue = f64;
    type Output = f64;
    fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
        if values.is_empty() {
            return;
        }
        // `total_cmp`: a `NaN` input line parses as a value, and must sort
        // (after every number) rather than panic the reduce task.
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        ctx.emit(median);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_parallel::ShardedBuffers;

    #[test]
    fn value_extract_parses_plain_and_tabbed_lines() {
        let mut ctx = MapContext::sharded(1);
        ValueExtractMapper.map(0, "3.5", &mut ctx);
        ValueExtractMapper.map(1, "key\t7.25", &mut ctx);
        ValueExtractMapper.map(2, "not-a-number", &mut ctx);
        let (buffers, _) = ctx.into_shards();
        let shards = ShardedBuffers::from_workers(1, vec![buffers]).merge(1, |_, pairs| pairs);
        assert_eq!(shards, vec![vec![(0, 3.5), (0, 7.25)]]);
    }

    #[test]
    fn mean_sum_median_reducers() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let mut ctx = ReduceContext::new();
        MeanReducer.reduce(&0, &values, &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![2.5]);

        let mut ctx = ReduceContext::new();
        SumReducer.reduce(&0, &values, &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![10.0]);

        let mut ctx = ReduceContext::new();
        MedianReducer.reduce(&0, &values, &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![2.5]);

        let mut ctx = ReduceContext::new();
        MedianReducer.reduce(&0, &[5.0, 1.0, 9.0], &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![5.0]);
    }

    #[test]
    fn empty_values_emit_nothing() {
        let mut ctx = ReduceContext::new();
        MeanReducer.reduce(&0, &[], &mut ctx);
        MedianReducer.reduce(&0, &[], &mut ctx);
        assert!(ctx.into_parts().0.is_empty());
    }
}
