//! The one declaration form for a metric bundle.
//!
//! A bundle is a struct of [`Counter`](crate::Counter),
//! [`Gauge`](crate::Gauge) and [`Histogram`](crate::Histogram) handles
//! registered under one series prefix. [`bundle!`](crate::bundle)
//! declares each series once — field, kind, help text and, for a
//! histogram, bucket bounds — and generates the struct (private
//! fields, `Clone` + `Debug`) and its one constructor, `registered`.
//! The series name is the prefix, an underscore and the field name, so
//! the name is never written out. The code that records into a bundle
//! lives beside its declaration, as methods of the bundle.

/// Declares a metric bundle and its `registered` constructor.
///
/// ```
/// clue_telemetry::bundle! {
///     /// Telemetry for an LRU cache.
///     pub struct CacheTelemetry in "clue_cache" {
///         hits_total: Counter = "Cache lookups served from the cache",
///         size: Gauge = "Entries held",
///         probe_len: Histogram(&[1, 2, 4, 8]) = "Slots probed per lookup",
///     }
/// }
///
/// let registry = clue_telemetry::Registry::new();
/// let _cache = CacheTelemetry::registered(&registry);
/// assert!(registry.contains("clue_cache_hits_total"));
/// assert!(registry.contains("clue_cache_probe_len"));
/// ```
///
/// The prefix is a string literal, or an identifier that becomes a
/// `&str` argument of `registered` (for a bundle served under more than
/// one prefix); help texts may name that argument. A trailing
/// `with |registry, arg: Type, …| { field: Type = init, … }` adds
/// fields that are not one fixed series (say, one counter per label
/// known only at run time), initialized from the registry and the extra
/// arguments it declares.
#[macro_export]
macro_rules! bundle {
    (@new $registry:ident, $name:expr, $help:expr, Counter) => {
        $registry.counter(&$name, &$help)
    };
    (@new $registry:ident, $name:expr, $help:expr, Gauge) => {
        $registry.gauge(&$name, &$help)
    };
    (@new $registry:ident, $name:expr, $help:expr, Histogram($bounds:expr)) => {
        $registry.histogram(&$name, &$help, $bounds)
    };
    (
        @emit [$(#[$meta:meta])*] $vis:vis $bundle:ident [$prefix:tt] [$($prefix_param:tt)*] {
            $(
                $(#[$field_meta:meta])*
                $field:ident: $kind:ident $(($bounds:expr))? = $help:expr
            ),* $(,)?
        }
        $(
            with |$registry:ident $(, $arg:ident: $arg_ty:ty)*| {
                $(
                    $(#[$extra_meta:meta])*
                    $extra:ident: $extra_ty:ty = $init:expr
                ),* $(,)?
            }
        )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug)]
        $vis struct $bundle {
            $($(#[$field_meta])* $field: $crate::$kind,)*
            $($($(#[$extra_meta])* $extra: $extra_ty,)*)?
        }

        impl $bundle {
            /// A bundle registered into `registry`: each series is
            /// created, or shared if `registry` already holds it.
            $vis fn registered(
                registry: &$crate::Registry,
                $($prefix_param)*
                $($($arg: $arg_ty,)*)?
            ) -> Self {
                $(let $registry = registry;)?
                $bundle {
                    $($field: $crate::bundle!(
                        @new registry,
                        format!("{}_{}", $prefix, stringify!($field)),
                        $help,
                        $kind $(($bounds))?
                    ),)*
                    $($($extra: $init,)*)?
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $bundle:ident in $prefix:literal { $($body:tt)* } $($with:tt)*
    ) => {
        $crate::bundle! {
            @emit [$(#[$meta])*] $vis $bundle [$prefix] [] { $($body)* } $($with)*
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $bundle:ident in $prefix:ident { $($body:tt)* } $($with:tt)*
    ) => {
        $crate::bundle! {
            @emit [$(#[$meta])*] $vis $bundle [$prefix] [$prefix: &str,] { $($body)* } $($with)*
        }
    };
}
