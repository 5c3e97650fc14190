//! Additive counters: every report struct whose fields are sums is declared
//! through [`counters!`](crate::counters!), which writes its field-wise
//! `merge` and `since` from the one field list.

/// A value that adds up field by field: a `u64` count, an `f64` of seconds
/// or energy, or a struct of them declared with
/// [`counters!`](crate::counters!) (nested ones included).
pub trait Counters: Copy {
    /// Both sides added up (two workers', two epochs').
    fn merge(self, other: Self) -> Self;

    /// What was added between `earlier` and `self`.
    fn since(self, earlier: Self) -> Self;
}

impl Counters for u64 {
    fn merge(self, other: u64) -> u64 {
        self + other
    }

    /// A count is monotone while its source lives, so one smaller than
    /// `earlier` is a caller bug (the delta is meaningless): debug builds
    /// assert; release saturates to zero instead of panicking in the middle
    /// of a long training run.
    fn since(self, earlier: u64) -> u64 {
        debug_assert!(
            self >= earlier,
            "counter went backwards: {self} since {earlier}"
        );
        self.saturating_sub(earlier)
    }
}

impl Counters for f64 {
    fn merge(self, other: f64) -> f64 {
        self + other
    }

    fn since(self, earlier: f64) -> f64 {
        self - earlier
    }
}

/// Declare a struct of additive counters: its fields, doc comments and
/// attributes (serde's included) are written once, in report order, and the
/// macro adds a field-wise `merge` and `since` (see [`Counters`]). Every
/// field is `pub` and of a [`Counters`] type.
///
/// ```
/// hetkg_netsim::counters! {
///     /// Two counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct Lane {
///         /// Bytes moved.
///         pub bytes: u64,
///         /// Seconds spent.
///         pub secs: f64,
///     }
/// }
/// let a = Lane { bytes: 3, secs: 0.5 };
/// assert_eq!(a.merge(a), Lane { bytes: 6, secs: 1.0 });
/// assert_eq!(a.merge(a).since(a), a);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$($attr:tt)*])*
        pub struct $name:ident {
            $($(#[$($field_attr:tt)*])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$($attr)*])*
        pub struct $name {
            $($(#[$($field_attr)*])* pub $field: $ty,)*
        }

        impl $name {
            /// Field by field, both sides added up (two workers', two
            /// epochs').
            pub fn merge(self, other: Self) -> Self {
                Self {
                    $($field: $crate::counters::Counters::merge(self.$field, other.$field),)*
                }
            }

            /// Field by field, what was added between `earlier` and `self`
            /// (a count that went backwards asserts in debug builds and
            /// saturates to zero in release).
            pub fn since(self, earlier: Self) -> Self {
                Self {
                    $($field: $crate::counters::Counters::since(self.$field, earlier.$field),)*
                }
            }
        }

        impl $crate::counters::Counters for $name {
            fn merge(self, other: Self) -> Self {
                $name::merge(self, other)
            }

            fn since(self, earlier: Self) -> Self {
                $name::since(self, earlier)
            }
        }
    };
}
