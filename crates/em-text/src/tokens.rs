//! Basic tokenization and normalization.
//!
//! The paper tokenizes attribute values by splitting on whitespace ("we
//! create a token for each space-separated term"); attribute-level
//! prefixing is handled one layer up in `em-entity`. Here we provide the
//! light normalization used when *comparing* tokens (similarities should
//! be case-insensitive and punctuation-robust).

/// Normalizes a token for comparison into a reused buffer: lowercases and
/// strips leading / trailing ASCII punctuation (interior punctuation like
/// `10.2` survives). ASCII tokens (the common case) are lowercased in
/// place without allocating; any other token is lowercased by
/// `str::to_lowercase`, which keeps context-dependent rules such as final
/// sigma.
pub fn normalize_into<'b>(token: &str, buf: &'b mut String) -> &'b str {
    let trimmed = token.trim_matches(|c: char| c.is_ascii_punctuation());
    buf.clear();
    if trimmed.is_ascii() {
        buf.push_str(trimmed);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&trimmed.to_lowercase());
    }
    buf
}

/// Splits on whitespace and normalizes, dropping tokens that normalize
/// to empty.
pub fn normalized_tokens(s: &str) -> Vec<String> {
    let mut buf = String::new();
    s.split_whitespace()
        .map(|t| normalize_into(t, &mut buf).to_owned())
        .filter(|t| !t.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalize(token: &str) -> String {
        normalize_into(token, &mut String::new()).to_owned()
    }

    #[test]
    fn normalize_lowercases() {
        assert_eq!(normalize("Sony"), "sony");
        assert_eq!(normalize("DSLRA200W"), "dslra200w");
    }

    #[test]
    fn normalize_strips_edge_punctuation_only() {
        assert_eq!(normalize("(camera)"), "camera");
        assert_eq!(normalize("10.2"), "10.2");
        assert_eq!(normalize("'85.99,"), "85.99");
    }

    #[test]
    fn normalize_all_punctuation_becomes_empty() {
        assert_eq!(normalize("!!!"), "");
    }

    #[test]
    fn normalize_into_lowercases_like_str_to_lowercase() {
        let mut buf = String::from("stale");
        for t in [
            "Sony",
            "(camera)",
            "'85.99,",
            "!!!",
            "",
            "ΟΔΟΣ",
            "Straße",
            "İstanbul",
            "ÉCLAIR!",
        ] {
            let reference = t
                .trim_matches(|c: char| c.is_ascii_punctuation())
                .to_lowercase();
            assert_eq!(normalize_into(t, &mut buf), reference, "{t:?}");
        }
    }

    #[test]
    fn normalized_tokens_splits_and_filters_empties() {
        assert_eq!(
            normalized_tokens("  Sony - Camera !!\t alpha "),
            vec!["sony", "camera", "alpha"]
        );
        assert!(normalized_tokens("   ").is_empty());
        assert!(normalized_tokens("").is_empty());
    }
}
