//! # elsa-testkit
//!
//! Zero-dependency test substrate for the ELSA reproduction, replacing the
//! external `rand` and `proptest` crates so the workspace builds and tests
//! fully offline.
//!
//! Two modules:
//!
//! * [`rng`] — seeded, splittable pseudo-randomness: [`SplitMix64`] for seed
//!   expansion and [`TestRng`] (xoshiro256++) with uniform, bounded-integer,
//!   and Box–Muller normal sampling. `elsa_linalg::SeededRng` wraps
//!   [`TestRng`]; simulation code should keep going through that wrapper.
//! * [`prop`] — a property-based testing harness: composable [`prop::Gen`]
//!   generators (ranges, vectors, subsets, matrices, tuples), seeded case
//!   generation, greedy shrinking, and failure reports that include the
//!   reproducing seed. Entry points: the [`props!`] macro or [`prop::check`].
//!
//! The crate depends only on `std`. Keeping it that way is a workspace
//! policy enforced by `scripts/verify.sh`.

pub mod prop;
pub mod rng;

pub use rng::{SplitMix64, TestRng};

/// Everything a property-test file needs: the [`props!`] macro re-exported
/// assertion macros, generator constructors, and config types.
pub mod prelude {
    pub use crate::prop::{
        bools, ints, ints_u64, just, matrices, range, range_f32, subsets, vecs, CaseError,
        CaseResult, Config, Gen, GenMatrix,
    };
    pub use crate::rng::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, props};
}
