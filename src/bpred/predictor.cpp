#include "bpred/predictor.h"

#include "util/assert.h"

namespace ringclu {
namespace {

constexpr bool is_power_of_two(std::size_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

}  // namespace

CounterTable::CounterTable(std::size_t entries, std::uint8_t initial)
    : counters_(entries, initial) {
  RINGCLU_EXPECTS(is_power_of_two(entries));
  RINGCLU_EXPECTS(initial <= 3);
}

bool CounterTable::predict(std::size_t index) const {
  return counters_[index & mask()] >= 2;
}

void CounterTable::update(std::size_t index, bool taken) {
  std::uint8_t& counter = counters_[index & mask()];
  if (taken) {
    if (counter < 3) ++counter;
  } else {
    if (counter > 0) --counter;
  }
}

std::uint8_t CounterTable::raw(std::size_t index) const {
  return counters_[index & mask()];
}

HybridPredictor::HybridPredictor(const SizeConfig& config)
    : gshare_(config.gshare_entries),
      bimodal_(config.bimodal_entries),
      selector_(config.selector_entries),
      history_mask_((1ULL << config.history_bits) - 1) {
  RINGCLU_EXPECTS(config.history_bits > 0 && config.history_bits < 32);
}

std::size_t HybridPredictor::gshare_index(std::uint64_t pc) const {
  return static_cast<std::size_t>((pc >> 2) ^ history_) & gshare_.mask();
}

std::size_t HybridPredictor::bimodal_index(std::uint64_t pc) const {
  return static_cast<std::size_t>(pc >> 2) & bimodal_.mask();
}

std::size_t HybridPredictor::selector_index(std::uint64_t pc) const {
  return static_cast<std::size_t>(pc >> 2) & selector_.mask();
}

bool HybridPredictor::predict(std::uint64_t pc) const {
  const bool use_gshare = selector_.predict(selector_index(pc));
  return use_gshare ? gshare_.predict(gshare_index(pc))
                    : bimodal_.predict(bimodal_index(pc));
}

void HybridPredictor::update(std::uint64_t pc, bool taken) {
  const bool gshare_pred = gshare_.predict(gshare_index(pc));
  const bool bimodal_pred = bimodal_.predict(bimodal_index(pc));
  // The selector trains toward the component that was right when they
  // disagree (standard tournament update).
  if (gshare_pred != bimodal_pred) {
    selector_.update(selector_index(pc), gshare_pred == taken);
  }
  gshare_.update(gshare_index(pc), taken);
  bimodal_.update(bimodal_index(pc), taken);
  history_ = ((history_ << 1) | (taken ? 1 : 0)) & history_mask_;
}

Btb::Btb(std::size_t entries, std::size_t ways)
    : ways_(ways), sets_(entries / ways), entries_(entries) {
  RINGCLU_EXPECTS(ways > 0 && entries % ways == 0);
  RINGCLU_EXPECTS(is_power_of_two(sets_));
}

std::size_t Btb::set_index(std::uint64_t pc) const {
  return static_cast<std::size_t>(pc >> 2) & (sets_ - 1);
}

std::uint64_t Btb::lookup(std::uint64_t pc) const {
  ++lookups_;
  const std::size_t base = set_index(pc) * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    const Entry& entry = entries_[base + w];
    if (entry.valid && entry.tag == pc) return entry.target;
  }
  ++misses_;
  return 0;
}

void Btb::update(std::uint64_t pc, std::uint64_t target) {
  const std::size_t base = set_index(pc) * ways_;
  ++tick_;
  std::size_t victim = 0;
  std::uint64_t victim_lru = ~0ULL;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& entry = entries_[base + w];
    if (entry.valid && entry.tag == pc) {
      entry.target = target;
      entry.lru = tick_;
      return;
    }
    if (!entry.valid) {
      victim = w;
      victim_lru = 0;
    } else if (entry.lru < victim_lru) {
      victim = w;
      victim_lru = entry.lru;
    }
  }
  Entry& entry = entries_[base + victim];
  entry.valid = true;
  entry.tag = pc;
  entry.target = target;
  entry.lru = tick_;
}

ReturnAddressStack::ReturnAddressStack(std::size_t depth) : stack_(depth, 0) {
  RINGCLU_EXPECTS(depth > 0);
}

void ReturnAddressStack::push(std::uint64_t return_pc) {
  top_ = (top_ + 1) % stack_.size();
  stack_[top_] = return_pc;
  if (count_ < stack_.size()) ++count_;
}

std::uint64_t ReturnAddressStack::pop() {
  if (count_ == 0) return 0;
  const std::uint64_t value = stack_[top_];
  top_ = (top_ + stack_.size() - 1) % stack_.size();
  --count_;
  return value;
}

FrontEnd::FrontEnd(const HybridPredictor::SizeConfig& config)
    : direction_(config) {}

BranchPrediction FrontEnd::predict_and_train(const MicroOp& op) {
  RINGCLU_EXPECTS(op.is_branch());
  ++branches_;
  BranchPrediction result;

  switch (op.branch_kind) {
    case BranchKind::Conditional: {
      result.predicted_taken = direction_.predict(op.pc);
      result.predicted_target =
          result.predicted_taken ? btb_.lookup(op.pc) : op.pc + 4;
      direction_.update(op.pc, op.taken);
      if (op.taken) btb_.update(op.pc, op.target);
      result.mispredicted =
          (result.predicted_taken != op.taken) ||
          (op.taken && result.predicted_target != op.target);
      break;
    }
    case BranchKind::Jump:
    case BranchKind::Call: {
      result.predicted_taken = true;
      result.predicted_target = btb_.lookup(op.pc);
      btb_.update(op.pc, op.target);
      result.mispredicted = result.predicted_target != op.target;
      if (op.branch_kind == BranchKind::Call) ras_.push(op.pc + 4);
      break;
    }
    case BranchKind::Return: {
      result.predicted_taken = true;
      result.predicted_target = ras_.pop();
      result.mispredicted = result.predicted_target != op.target;
      break;
    }
    case BranchKind::None:
      RINGCLU_UNREACHABLE("branch micro-op without a branch kind");
  }

  if (result.mispredicted) ++mispredicts_;
  return result;
}

}  // namespace ringclu
