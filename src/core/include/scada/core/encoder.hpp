// ThreatEncoder: lowers a ScadaScenario and a resiliency specification to
// the Boolean/cardinality constraint system of §III.
//
// Variables:
//   Node_i       — device i (IED or RTU) is available. MTU and routers are
//                  assumed reliable (constants), matching the paper's threat
//                  model of "k field devices (i.e., IEDs and RTUs)".
//   LinkStatus_l — optional extension (links_can_fail): link l is up.
//
// Derived formulas follow the paper's equations:
//   AssuredDelivery_I  = ∃ path: every device up, every link up, every
//                        logical hop protocol- and crypto-paired
//   SecuredDelivery_I  = AssuredDelivery along a path whose every logical
//                        hop is Authenticated ∧ IntegrityProtected
//   D_Z / S_Z          = delivery/secure-delivery of the owning IED
//   Observability      = (∀X DE_X) ∧ (Σ_E DelUMsr_E ≥ n)
//   BadDataDetectability = ∀X (Σ_Z SE_{X,Z} ≥ r+1)
//   threat(spec)       = failure budget ∧ ¬property
#pragma once

#include <map>
#include <vector>

#include "scada/core/paths.hpp"
#include "scada/core/scenario.hpp"
#include "scada/core/spec.hpp"
#include "scada/smt/formula.hpp"

namespace scada::core {

struct EncoderOptions {
  /// §III-C refinement: a bus-injection measurement does not count as a
  /// unique measurement when delivered flows already cover every incident
  /// branch of its bus. Requires a placement-built MeasurementModel.
  bool injection_redundancy = false;
  /// Extension: links may fail too (free LinkStatus_l variables). The
  /// failure budget then also bounds the number of down links.
  bool links_can_fail = false;
};

class ThreatEncoder {
 public:
  /// The builder must outlive the encoder.
  ThreatEncoder(const ScadaScenario& scenario, const EncoderOptions& options,
                smt::FormulaBuilder& builder);

  // --- decision variables ---
  /// Node_i of a field device (throws for MTU/router ids).
  [[nodiscard]] smt::Formula node_var(int device_id) const;
  /// LinkStatus_l (constant true unless links_can_fail).
  [[nodiscard]] smt::Formula link_var(int link_id) const;

  // --- derived constraints (cached, hash-consed by the builder) ---
  [[nodiscard]] smt::Formula assured_delivery(int ied_id);
  [[nodiscard]] smt::Formula secured_delivery(int ied_id);
  [[nodiscard]] smt::Formula delivered(std::size_t measurement);  // D_Z
  [[nodiscard]] smt::Formula secured(std::size_t measurement);    // S_Z
  [[nodiscard]] smt::Formula observability();
  [[nodiscard]] smt::Formula secured_observability();
  [[nodiscard]] smt::Formula bad_data_detectability(int r);
  /// The formula of `property`; r only matters for BadDataDetectability.
  [[nodiscard]] smt::Formula property(Property p, int r);

  /// Failure budget of a specification (AtMost over failed devices/links).
  /// Throws ConfigError when no budget is set or a set budget is negative.
  [[nodiscard]] smt::Formula failure_budget(const ResiliencySpec& spec);

  /// budget ∧ ¬property — sat models of this are threat vectors.
  [[nodiscard]] smt::Formula threat(Property property, const ResiliencySpec& spec);

  [[nodiscard]] const ScadaScenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] smt::FormulaBuilder& builder() noexcept { return builder_; }
  [[nodiscard]] const EncoderOptions& options() const noexcept { return options_; }

 private:
  /// OR over statically valid paths of the availability conjunction.
  [[nodiscard]] smt::Formula delivery_formula(int ied_id, DeliveryKind kind);
  /// Observability counting core shared by plain/secured variants.
  [[nodiscard]] smt::Formula counting_observability(DeliveryKind kind);
  [[nodiscard]] smt::Formula measurement_formula(std::size_t z, DeliveryKind kind);

  const ScadaScenario& scenario_;
  EncoderOptions options_;
  smt::FormulaBuilder& builder_;

  std::map<int, smt::Formula> node_vars_;
  std::map<int, smt::Formula> link_vars_;
  std::map<int, smt::Formula> assured_cache_;
  std::map<int, smt::Formula> secured_cache_;
};

}  // namespace scada::core
