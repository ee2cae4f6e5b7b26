//! The unified error type for runtime fault handling.
//!
//! Historically each subsystem grew its own failure surface: checkpointing
//! returns [`CheckpointError`], the async sampler returns
//! [`SampleError`], the cache and config validate with ad-hoc `String`s,
//! and the feature loader just panicked on a bad index. Resilience code
//! (the [`crate::resilience`] supervisor) needs to *match on error kinds*
//! to pick a recovery action, so everything funnels into [`FgnnError`]
//! via `From` impls — `?` works across subsystem boundaries and the
//! supervisor can name the failure domain in its transition log.

use crate::checkpoint::CheckpointError;
use crate::sampler::SampleError;
use std::fmt;

/// Any failure the training runtime can surface.
#[derive(Debug)]
pub enum FgnnError {
    /// Checkpoint save/load/restore failed.
    Checkpoint(CheckpointError),
    /// The async sampler lost a batch or its workers.
    Sample(SampleError),
    /// Historical-cache snapshot/restore failed structural validation.
    Cache(String),
    /// Feature loading was asked for out-of-range rows.
    Load(String),
    /// Invalid configuration.
    Config(String),
    /// Numeric health guard tripped and recovery was exhausted.
    Numeric(String),
    /// The serving engine hit an invalid configuration or request (bad
    /// trace, zero-capacity queue, node outside the embedding store).
    Serve(String),
    /// The serving admission controller rejected work it cannot absorb:
    /// offered load exceeds what the bounded queue + token bucket accept.
    Overload(String),
    /// Underlying I/O failure outside the checkpoint framing.
    Io(std::io::Error),
}

impl fmt::Display for FgnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FgnnError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            FgnnError::Sample(e) => write!(f, "sampler error: {e}"),
            FgnnError::Cache(m) => write!(f, "cache error: {m}"),
            FgnnError::Load(m) => write!(f, "feature-load error: {m}"),
            FgnnError::Config(m) => write!(f, "config error: {m}"),
            FgnnError::Numeric(m) => write!(f, "numeric-health error: {m}"),
            FgnnError::Serve(m) => write!(f, "serving error: {m}"),
            FgnnError::Overload(m) => write!(f, "overload error: {m}"),
            FgnnError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FgnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FgnnError::Checkpoint(e) => Some(e),
            FgnnError::Sample(e) => Some(e),
            FgnnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for FgnnError {
    fn from(e: CheckpointError) -> Self {
        FgnnError::Checkpoint(e)
    }
}

impl From<SampleError> for FgnnError {
    fn from(e: SampleError) -> Self {
        FgnnError::Sample(e)
    }
}

impl From<std::io::Error> for FgnnError {
    fn from(e: std::io::Error) -> Self {
        FgnnError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_allow_question_mark_across_domains() {
        fn load() -> Result<(), FgnnError> {
            Err(CheckpointError::BadMagic)?
        }
        fn sample() -> Result<(), FgnnError> {
            Err(SampleError::BatchPanicked {
                batch_index: 3,
                attempts: 2,
            })?
        }
        assert!(matches!(load(), Err(FgnnError::Checkpoint(_))));
        assert!(matches!(sample(), Err(FgnnError::Sample(_))));
    }

    #[test]
    fn display_is_stable() {
        let e = FgnnError::Cache("snapshot level 2 dim 3 != configured 4".into());
        assert!(e.to_string().contains("cache error"));
        let e: FgnnError = CheckpointError::Truncated.into();
        assert!(e.to_string().contains("truncated"));
    }

    /// Exhaustive display check: one instance of *every* variant (the
    /// match below fails to compile when a variant is added without
    /// extending this list), each checked for a display string that leads
    /// with its own domain.
    #[test]
    fn every_variant_displays_its_domain() {
        let variants: Vec<FgnnError> = vec![
            FgnnError::Checkpoint(CheckpointError::BadMagic),
            FgnnError::Sample(SampleError::BatchPanicked {
                batch_index: 0,
                attempts: 1,
            }),
            FgnnError::Cache("c".into()),
            FgnnError::Load("l".into()),
            FgnnError::Config("c".into()),
            FgnnError::Numeric("n".into()),
            FgnnError::Serve("queue cap 0".into()),
            FgnnError::Overload("bucket empty".into()),
            FgnnError::Io(std::io::Error::other("disk on fire")),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for e in &variants {
            // Compile-time exhaustiveness + the expected display prefix.
            let prefix = match e {
                FgnnError::Checkpoint(_) => "checkpoint error",
                FgnnError::Sample(_) => "sampler error",
                FgnnError::Cache(_) => "cache error",
                FgnnError::Load(_) => "feature-load error",
                FgnnError::Config(_) => "config error",
                FgnnError::Numeric(_) => "numeric-health error",
                FgnnError::Serve(_) => "serving error",
                FgnnError::Overload(_) => "overload error",
                FgnnError::Io(_) => "i/o error",
            };
            let shown = e.to_string();
            assert!(
                shown.starts_with(prefix),
                "{shown:?} should start with {prefix:?}"
            );
            assert!(seen.insert(prefix), "duplicate domain {prefix:?}");
        }
        assert_eq!(seen.len(), variants.len());
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        use std::error::Error;
        let e: FgnnError = CheckpointError::BadMagic.into();
        assert!(e.source().is_some());
        let e = FgnnError::Config("bad p_grad".into());
        assert!(e.source().is_none());
    }
}
