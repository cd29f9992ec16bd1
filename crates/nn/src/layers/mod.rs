//! Concrete layer implementations.

mod activation;
mod batchnorm;
mod conv;
mod flatten;
mod linear;
mod lstm;
mod pool;
mod residual;

pub use activation::{Activation, ActivationKind};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use lstm::{LastStep, LstmLayer};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;
