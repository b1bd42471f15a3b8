//! Schema-agnostic entity profiles.
//!
//! Following the schema-agnostic ER literature (Papadakis et al.; §2.1 of the
//! PIER paper), an *entity profile* is an identifier plus an arbitrary bag of
//! attribute/value string pairs. No schema is assumed: two profiles that
//! describe the same real-world entity may use entirely different attribute
//! names, different numbers of attributes, and free-text values.

use std::fmt;

use crate::error::PierError;

/// Dense numeric identifier of a profile, unique across all sources of a
/// dataset. Assigned in arrival order, so it doubles as an arrival index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileId(pub u32);

impl ProfileId {
    /// Admissible ids are `0..LIMIT`. Every per-profile table (block lists,
    /// stored profiles and token sets, ghost floors, scratch stamps, stage
    /// B's prepared entries) is a vector indexed by id and grown to the
    /// largest id seen, so an id is also a request for memory; the limit
    /// keeps one streamed profile from asking for tens of GiB. `1 << 24`
    /// is five times the paper's largest corpus.
    pub const LIMIT: u32 = 1 << 24;

    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checks the id against [`ProfileId::LIMIT`].
    ///
    /// # Errors
    /// [`PierError::InvalidConfig`] naming the id.
    pub fn check(self) -> Result<(), PierError> {
        if self.0 < Self::LIMIT {
            return Ok(());
        }
        Err(PierError::InvalidConfig {
            parameter: "profiles",
            message: format!("profile id {self} is not below the limit {}", Self::LIMIT),
        })
    }
}

impl fmt::Display for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of the data source a profile originates from.
///
/// Dirty ER datasets have a single source (`SourceId(0)`); Clean-Clean ER
/// datasets have two duplicate-free sources (`SourceId(0)` and
/// `SourceId(1)`) and only cross-source comparisons are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u8);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One attribute/value pair of an entity profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, e.g. `"title"`. Never interpreted by the
    /// schema-agnostic pipeline, kept for provenance and debugging.
    pub name: String,
    /// Attribute value, free text.
    pub value: String,
}

impl Attribute {
    /// Creates an attribute from anything string-like.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// A schema-agnostic entity profile: an identifier, the source it came from,
/// and a bag of attribute/value pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityProfile {
    /// Unique identifier within a dataset.
    pub id: ProfileId,
    /// Which clean source the profile belongs to (always `SourceId(0)` for
    /// Dirty ER).
    pub source: SourceId,
    /// Attribute/value pairs. Order is preserved but carries no meaning.
    pub attributes: Vec<Attribute>,
}

impl EntityProfile {
    /// Creates a profile with no attributes; use [`EntityProfile::with`] or
    /// push onto `attributes` to populate it.
    pub fn new(id: ProfileId, source: SourceId) -> Self {
        EntityProfile {
            id,
            source,
            attributes: Vec::new(),
        }
    }

    /// Builder-style attribute addition.
    ///
    /// ```
    /// use pier_types::{EntityProfile, ProfileId, SourceId};
    /// let p = EntityProfile::new(ProfileId(0), SourceId(0))
    ///     .with("title", "The Matrix")
    ///     .with("year", "1999");
    /// assert_eq!(p.attributes.len(), 2);
    /// ```
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute::new(name, value));
        self
    }

    /// Iterates over all attribute values (the only part of a profile the
    /// schema-agnostic pipeline looks at).
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.value.as_str())
    }

    /// Total number of characters across all values. Used as the size proxy
    /// for the edit-distance cost model.
    pub fn value_len(&self) -> usize {
        self.attributes
            .iter()
            .map(|a| a.value.chars().count())
            .sum()
    }

    /// Concatenation of all values separated by single spaces, in attribute
    /// order. This is the string representation that string-similarity match
    /// functions (e.g. edit distance) operate on in the schema-agnostic
    /// setting.
    pub fn flattened_text(&self) -> String {
        let total: usize = self
            .attributes
            .iter()
            .map(|a| a.value.len() + 1)
            .sum::<usize>()
            .saturating_sub(1);
        let mut out = String::with_capacity(total);
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&a.value);
        }
        out
    }

    /// First value stored under `name`, if any. Only used by generators and
    /// examples — the ER pipeline itself never inspects attribute names.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EntityProfile {
        EntityProfile::new(ProfileId(7), SourceId(1))
            .with("title", "Alien")
            .with("year", "1979")
            .with("director", "Ridley Scott")
    }

    #[test]
    fn ids_are_admissible_below_the_limit_only() {
        assert!(ProfileId(0).check().is_ok());
        assert!(ProfileId(ProfileId::LIMIT - 1).check().is_ok());
        assert_eq!(
            ProfileId(ProfileId::LIMIT).check().unwrap_err().to_string(),
            "invalid configuration for `profiles`: profile id p16777216 is not below the limit 16777216"
        );
        assert!(ProfileId(u32::MAX).check().is_err());
    }

    #[test]
    fn profile_id_display_and_index() {
        assert_eq!(ProfileId(12).to_string(), "p12");
        assert_eq!(ProfileId(12).index(), 12);
        assert_eq!(SourceId(1).to_string(), "s1");
    }

    #[test]
    fn builder_accumulates_attributes() {
        let p = sample();
        assert_eq!(p.attributes.len(), 3);
        assert_eq!(p.attributes[0].name, "title");
        assert_eq!(p.attributes[2].value, "Ridley Scott");
    }

    #[test]
    fn values_iterates_in_order() {
        let p = sample();
        let vals: Vec<&str> = p.values().collect();
        assert_eq!(vals, vec!["Alien", "1979", "Ridley Scott"]);
    }

    #[test]
    fn flattened_text_joins_with_spaces() {
        let p = sample();
        assert_eq!(p.flattened_text(), "Alien 1979 Ridley Scott");
    }

    #[test]
    fn flattened_text_empty_profile() {
        let p = EntityProfile::new(ProfileId(0), SourceId(0));
        assert_eq!(p.flattened_text(), "");
    }

    #[test]
    fn value_len_counts_chars_not_bytes() {
        let p = EntityProfile::new(ProfileId(0), SourceId(0)).with("name", "héllo");
        assert_eq!(p.value_len(), 5);
    }

    #[test]
    fn value_of_returns_first_match() {
        let p = sample().with("title", "Aliens");
        assert_eq!(p.value_of("title"), Some("Alien"));
        assert_eq!(p.value_of("missing"), None);
    }

    #[test]
    fn profile_ids_order_by_arrival() {
        assert!(ProfileId(3) < ProfileId(10));
    }
}
