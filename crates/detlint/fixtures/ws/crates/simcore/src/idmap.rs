//! The id-map module may name std's hash types: it defines the aliases.

pub type IdMap<K, V> = std::collections::HashMap<K, V, Fixed>;
pub type IdSet<K> = std::collections::HashSet<K, Fixed>;
