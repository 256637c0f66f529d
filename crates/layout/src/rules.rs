/// AAPSM design rules, in database units (1 dbu = 1 nm).
///
/// Defaults model a 90 nm-node polysilicon layer, matching the paper's
/// experimental setting ("all our examples are 90 nm designs and assume
/// typical values of threshold width for critical features, shifter
/// dimensions and shifter spacing").
///
/// ```
/// use aapsm_layout::DesignRules;
/// let rules = DesignRules::default();
/// assert!(rules.shifter_spacing > rules.shifter_width);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DesignRules {
    /// Features whose smaller dimension is at most this are *critical* and
    /// must be flanked by opposite-phase shifters.
    pub critical_width: i64,
    /// Width of a generated phase shifter.
    pub shifter_width: i64,
    /// Minimum clear-area spacing between two shifters of (potentially)
    /// opposite phase; closer pairs must be merged to the same phase.
    pub shifter_spacing: i64,
    /// How far a shifter extends beyond each line end of its feature.
    pub shifter_overhang: i64,
    /// Minimum feature-to-feature spacing (used by layout validation and
    /// the synthetic generators).
    pub min_feature_space: i64,
}

impl Default for DesignRules {
    fn default() -> Self {
        DesignRules {
            critical_width: 120,
            shifter_width: 200,
            shifter_spacing: 280,
            shifter_overhang: 100,
            min_feature_space: 140,
        }
    }
}

impl DesignRules {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation of the first violated
    /// consistency condition.
    pub fn validate(&self) -> Result<(), String> {
        if self.critical_width <= 0 {
            return Err("critical_width must be positive".into());
        }
        if self.shifter_width <= 0 {
            return Err("shifter_width must be positive".into());
        }
        if self.shifter_spacing <= 0 {
            return Err("shifter_spacing must be positive".into());
        }
        if self.shifter_overhang < 0 {
            return Err("shifter_overhang must be non-negative".into());
        }
        if self.min_feature_space <= 0 {
            return Err("min_feature_space must be positive".into());
        }
        Ok(())
    }

    /// The interaction radius within which two shifters can possibly
    /// violate the spacing rule (extraction indexes each shifter inflated
    /// by half of it).
    pub fn interaction_radius(&self) -> i64 {
        self.shifter_spacing
    }

    /// Whether a feature rect is critical, so that extraction flanks it
    /// with two shifters: its narrower side is at most
    /// [`Self::critical_width`].
    pub fn is_critical(&self, rect: &aapsm_geom::Rect) -> bool {
        rect.min_dim() <= self.critical_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_are_valid() {
        assert!(DesignRules::default().validate().is_ok());
    }

    #[test]
    fn invalid_rules_are_rejected() {
        let r = DesignRules {
            shifter_width: 0,
            ..DesignRules::default()
        };
        assert!(r.validate().is_err());
        let r = DesignRules {
            shifter_overhang: -1,
            ..DesignRules::default()
        };
        assert!(r.validate().is_err());
    }
}
