#include "branch/predictor.hh"

#include "common/log.hh"

namespace raceval::branch
{

using isa::OpClass;

BranchUnit::BranchUnit(const BranchParams &p)
    : params(p)
{
    RV_ASSERT(p.tableBits >= 2 && p.tableBits <= 20,
              "tableBits %u out of range", p.tableBits);
    RV_ASSERT(p.btbBits >= 2 && p.btbBits <= 20,
              "btbBits %u out of range", p.btbBits);
    size_t table = size_t{1} << params.tableBits;
    bimodal.assign(table, 1);  // weakly not-taken
    gshare.assign(table, 1);
    localHist.assign(table, 0);
    localCtr.assign(table, 1);
    chooser.assign(table, 1);
    btb.assign(size_t{1} << params.btbBits, BtbEntry{});
    ras.assign(params.rasEntries ? params.rasEntries : 1, 0);
    indirectTable.assign(size_t{1} << params.indirectBits, BtbEntry{});
    reset();
}

void
BranchUnit::reset()
{
    bstats = BranchStats{};
    std::fill(bimodal.begin(), bimodal.end(), 1);
    std::fill(gshare.begin(), gshare.end(), 1);
    std::fill(localHist.begin(), localHist.end(), 0);
    std::fill(localCtr.begin(), localCtr.end(), 1);
    std::fill(chooser.begin(), chooser.end(), 1);
    std::fill(btb.begin(), btb.end(), BtbEntry{});
    std::fill(indirectTable.begin(), indirectTable.end(), BtbEntry{});
    std::fill(ras.begin(), ras.end(), 0);
    globalHistory = 0;
    pathHistory = 0;
    rasTop = 0;
}

void
BranchUnit::updateCounter(uint8_t &counter, bool taken)
{
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

bool
BranchUnit::predictDirection(uint64_t pc)
{
    size_t mask = bimodal.size() - 1;
    size_t pc_index = (pc >> 2) & mask;
    uint64_t hist_mask = (1ull << params.historyBits) - 1;
    size_t gs_index = ((pc >> 2) ^ (globalHistory & hist_mask)) & mask;

    switch (params.kind) {
      case PredictorKind::NotTaken:
        return false;
      case PredictorKind::Bimodal:
        return bimodal[pc_index] >= 2;
      case PredictorKind::GShare:
        return gshare[gs_index] >= 2;
      case PredictorKind::Local: {
        size_t ctr_index = (localHist[pc_index]
                            ^ static_cast<uint16_t>(pc >> 2)) & mask;
        return localCtr[ctr_index] >= 2;
      }
      case PredictorKind::Tournament: {
        bool use_gshare = chooser[pc_index] >= 2;
        return use_gshare ? gshare[gs_index] >= 2
                          : bimodal[pc_index] >= 2;
      }
      default:
        panic("bad predictor kind %d", static_cast<int>(params.kind));
    }
}

void
BranchUnit::updateDirection(uint64_t pc, bool taken)
{
    size_t mask = bimodal.size() - 1;
    size_t pc_index = (pc >> 2) & mask;
    uint64_t hist_mask = (1ull << params.historyBits) - 1;
    size_t gs_index = ((pc >> 2) ^ (globalHistory & hist_mask)) & mask;

    switch (params.kind) {
      case PredictorKind::NotTaken:
        break;
      case PredictorKind::Bimodal:
        updateCounter(bimodal[pc_index], taken);
        break;
      case PredictorKind::GShare:
        updateCounter(gshare[gs_index], taken);
        break;
      case PredictorKind::Local: {
        size_t ctr_index = (localHist[pc_index]
                            ^ static_cast<uint16_t>(pc >> 2)) & mask;
        updateCounter(localCtr[ctr_index], taken);
        uint16_t hist_bits_mask =
            static_cast<uint16_t>((1u << params.historyBits) - 1);
        localHist[pc_index] = static_cast<uint16_t>(
            ((localHist[pc_index] << 1) | (taken ? 1 : 0))
            & hist_bits_mask);
        break;
      }
      case PredictorKind::Tournament: {
        bool bimodal_correct = (bimodal[pc_index] >= 2) == taken;
        bool gshare_correct = (gshare[gs_index] >= 2) == taken;
        if (bimodal_correct != gshare_correct)
            updateCounter(chooser[pc_index], gshare_correct);
        updateCounter(bimodal[pc_index], taken);
        updateCounter(gshare[gs_index], taken);
        break;
      }
      default:
        panic("bad predictor kind %d", static_cast<int>(params.kind));
    }
    globalHistory = (globalHistory << 1) | (taken ? 1 : 0);
}

bool
BranchUnit::predict(const vm::DynInst &dyn)
{
    RV_ASSERT(dyn.inst.isBranch, "predict() on non-branch %s",
              isa::opcodeName(dyn.inst.op));
    return predict(dyn.pc, dyn.inst.cls, dyn.taken, dyn.nextPc);
}

bool
BranchUnit::predict(uint64_t pc, OpClass cls, bool actual_taken,
                    uint64_t actual_next_pc)
{
    ++bstats.branches;
    uint64_t fallthrough = pc + 4;
    size_t btb_mask = btb.size() - 1;
    BtbEntry &btb_entry = btb[(pc >> 2) & btb_mask];
    bool btb_hit = btb_entry.valid && btb_entry.tag == pc;

    bool pred_taken;
    uint64_t pred_target = fallthrough;

    switch (cls) {
      case OpClass::BranchCond:
        pred_taken = predictDirection(pc);
        if (pred_taken)
            pred_target = btb_hit ? btb_entry.target : fallthrough;
        break;
      case OpClass::BranchUncond:
      case OpClass::BranchCall:
        pred_taken = true;
        pred_target = btb_hit ? btb_entry.target : fallthrough;
        break;
      case OpClass::BranchRet:
        pred_taken = true;
        if (params.rasEntries) {
            pred_target = ras[(rasTop + ras.size() - 1) % ras.size()];
        } else {
            pred_target = btb_hit ? btb_entry.target : fallthrough;
        }
        break;
      case OpClass::BranchIndirect: {
        pred_taken = true;
        if (params.indirect) {
            size_t ind_mask = indirectTable.size() - 1;
            uint64_t hist_mask = (1ull << params.indirectHistory) - 1;
            size_t index = ((pc >> 2) ^ (pathHistory & hist_mask))
                & ind_mask;
            const BtbEntry &entry = indirectTable[index];
            pred_target = entry.valid ? entry.target
                : (btb_hit ? btb_entry.target : fallthrough);
        } else {
            pred_target = btb_hit ? btb_entry.target : fallthrough;
        }
        break;
      }
      default:
        panic("predict: bad branch class %d", static_cast<int>(cls));
    }

    bool direction_wrong = pred_taken != actual_taken;
    bool target_wrong = actual_taken && !direction_wrong
        && pred_target != actual_next_pc;
    bool mispredict = direction_wrong || target_wrong;
    if (mispredict) {
        ++bstats.mispredicts;
        if (direction_wrong)
            ++bstats.directionMispredicts;
        else
            ++bstats.targetMispredicts;
    }

    // --- updates ---------------------------------------------------------
    if (cls == OpClass::BranchCond)
        updateDirection(pc, actual_taken);

    if (actual_taken) {
        btb_entry.valid = true;
        btb_entry.tag = pc;
        btb_entry.target = actual_next_pc;
    }

    if (cls == OpClass::BranchCall && params.rasEntries) {
        ras[rasTop] = fallthrough;
        rasTop = (rasTop + 1) % ras.size();
    } else if (cls == OpClass::BranchRet && params.rasEntries) {
        rasTop = (rasTop + ras.size() - 1) % ras.size();
    }

    if (cls == OpClass::BranchIndirect) {
        if (params.indirect) {
            size_t ind_mask = indirectTable.size() - 1;
            uint64_t hist_mask = (1ull << params.indirectHistory) - 1;
            size_t index = ((pc >> 2) ^ (pathHistory & hist_mask))
                & ind_mask;
            indirectTable[index] = BtbEntry{pc, actual_next_pc, true};
        }
        // Path history mixes in the low target bits, following
        // history-based indirect predictors.
        pathHistory = (pathHistory << 3) ^ (actual_next_pc >> 2);
    }
    return mispredict;
}

} // namespace raceval::branch
