//! Error type for the sampling layer.

use std::fmt;

use earl_dfs::DfsError;

/// Errors raised by the samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// The underlying DFS reported an error.
    Dfs(DfsError),
    /// The sampler was configured with invalid parameters.
    InvalidConfig(String),
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::Dfs(e) => write!(f, "dfs error: {e}"),
            SamplingError::InvalidConfig(msg) => write!(f, "invalid sampler configuration: {msg}"),
        }
    }
}

impl std::error::Error for SamplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplingError::Dfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfsError> for SamplingError {
    fn from(e: DfsError) -> Self {
        SamplingError::Dfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e: SamplingError = DfsError::FileNotFound("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        assert!(SamplingError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
    }
}
