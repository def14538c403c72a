#include "vtime/costs.hpp"

namespace selfsched::vtime {

CostModel CostModel::cedar() { return CostModel{}; }

CostModel CostModel::cheap_sync() {
  CostModel c;
  c.sync_op = 2;
  c.list_step = 3;
  c.ivec_copy_per_level = 1;
  c.icb_alloc = 10;
  c.icb_release = 5;
  c.descrpt_step = 4;
  c.cond_eval = 5;
  c.bound_eval = 3;
  c.dispatch_arith = 2;
  return c;
}

CostModel CostModel::expensive_sync() {
  CostModel c;
  c.sync_op = 80;
  c.list_step = 20;
  c.ivec_copy_per_level = 4;
  c.icb_alloc = 120;
  c.icb_release = 60;
  c.descrpt_step = 16;
  c.cond_eval = 20;
  c.bound_eval = 12;
  c.dispatch_arith = 8;
  return c;
}

}  // namespace selfsched::vtime
