#include "trace/trace.hh"

namespace rppm {

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::FpAdd:  return "FpAdd";
      case OpClass::FpMul:  return "FpMul";
      case OpClass::FpDiv:  return "FpDiv";
      case OpClass::Load:   return "Load";
      case OpClass::Store:  return "Store";
      case OpClass::Branch: return "Branch";
      default:              return "Unknown";
    }
}

const char *
syncTypeName(SyncType type)
{
    switch (type) {
      case SyncType::None:         return "None";
      case SyncType::ThreadCreate: return "ThreadCreate";
      case SyncType::ThreadJoin:   return "ThreadJoin";
      case SyncType::BarrierWait:  return "BarrierWait";
      case SyncType::MutexLock:    return "MutexLock";
      case SyncType::MutexUnlock:  return "MutexUnlock";
      case SyncType::CondBarrier:  return "CondBarrier";
      case SyncType::QueuePush:    return "QueuePush";
      case SyncType::QueuePop:     return "QueuePop";
      case SyncType::CondMarker:   return "CondMarker";
      default:                     return "Unknown";
    }
}

} // namespace rppm
